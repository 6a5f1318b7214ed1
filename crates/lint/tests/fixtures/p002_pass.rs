pub fn mean(xs: &[f64]) -> Option<f64> {
    debug_assert!(xs.iter().all(|x| !x.is_nan()));
    debug_assert_eq!(xs.len(), xs.iter().count());
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn mean_works() {
        assert_eq!(super::mean(&[1.0, 3.0]), Some(2.0));
        assert!(super::mean(&[]).is_none());
    }
}
