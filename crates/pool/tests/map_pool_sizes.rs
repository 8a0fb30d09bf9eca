//! `map` keeps input order and gives the same output inline and pooled.
//!
//! The pool is process-wide and only ever grows, so this is the only test
//! in its binary: it observes the pool at zero workers before growing it.

#[test]
fn map_keeps_order_inline_and_pooled() {
    let items: Vec<u64> = (0..41).map(|i| (i * 0x9e37) ^ 0xA5).collect();
    let work = |i: usize, &x: &u64| -> Vec<u64> {
        (0..=i as u64 % 5)
            .map(|k| x.rotate_left(k as u32) ^ (i as u64))
            .collect()
    };
    let expected: Vec<Vec<u64>> = items.iter().enumerate().map(|(i, x)| work(i, x)).collect();

    assert_eq!(soteria_pool::pool_threads(), 0, "pool already warm");
    assert_eq!(soteria_pool::map(&items, work), expected);

    assert!(soteria_pool::ensure_threads(3) >= 3);
    assert_eq!(soteria_pool::map(&items, work), expected);
    assert!(soteria_pool::map(&[] as &[u64], work).is_empty());
}
