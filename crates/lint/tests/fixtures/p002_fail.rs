pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    assert_ne!(a.len(), 0);
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}
