//! An epoch-stamped set over dense ids, the reusable visited set of the
//! optimizer's hot loops (the convexity check, the index's candidate
//! filter): emptying it is O(1), so one set serves every call without
//! allocating or zeroing once it has grown.

/// A set of ids below some bound, emptied in O(1) by advancing an epoch: an
/// id is a member when its stamp equals the current epoch.
///
/// # Examples
///
/// ```
/// use quartz_ir::EpochSet;
///
/// let mut set = EpochSet::default();
/// set.reset(4);
/// assert!(set.insert(2));
/// assert!(!set.insert(2));
/// assert!(set.contains(2) && !set.contains(3));
/// set.reset(4);
/// assert!(!set.contains(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpochSet {
    epoch: u32,
    stamp: Vec<u32>,
}

impl EpochSet {
    /// Empties the set and makes room for ids below `len`.
    pub fn reset(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear stale stamps that might collide with the epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Adds `id`; returns `true` when it was not a member yet.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below the bound of the last
    /// [`EpochSet::reset`].
    pub fn insert(&mut self, id: usize) -> bool {
        let first = self.stamp[id] != self.epoch;
        self.stamp[id] = self.epoch;
        first
    }

    /// Returns `true` when `id` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below the bound of the last
    /// [`EpochSet::reset`].
    pub fn contains(&self, id: usize) -> bool {
        self.stamp[id] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrapped_epoch_forgets_every_stale_member() {
        let mut set = EpochSet::default();
        set.reset(3);
        set.insert(1);
        set.epoch = u32::MAX;
        set.insert(0);
        set.reset(3);
        assert_eq!(set.epoch, 1);
        assert!((0..3).all(|id| !set.contains(id)));
    }
}
