//! The compute pool's process-wide thread setting. Setting it changes
//! the width of every batch in the process, so this test has a binary
//! of its own: in a shared binary, tests running concurrently would run
//! at the width set here, not at the `FAEHIM_POOL_THREADS` width a CI
//! run asks for.

#![forbid(unsafe_code)]

use dm_algorithms::pool;

#[test]
fn pool_env_override_is_respected() {
    // FAEHIM_POOL_THREADS is read once at first pool touch; the
    // explicit setter wins afterwards. This pins the setter +
    // current_threads round-trip the CI matrix relies on.
    pool::set_global_threads(3);
    assert_eq!(pool::current_threads(), 3);
    pool::with_threads(5, || assert_eq!(pool::current_threads(), 5));
    assert_eq!(pool::current_threads(), 3);
}
