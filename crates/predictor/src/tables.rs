//! Small building blocks: saturating counters and tagged tables.

/// A 2-bit saturating counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SatCounter(u8);

impl SatCounter {
    /// Creates a counter initialized to a weakly-taken state (2).
    #[must_use]
    pub(crate) fn weakly_high() -> Self {
        SatCounter(2)
    }

    /// Current counter value (0..=3).
    #[must_use]
    pub fn value(self) -> u8 {
        self.0
    }

    /// True in the upper half of the range.
    #[must_use]
    pub(crate) fn is_high(self) -> bool {
        self.0 >= 2
    }

    /// Increments, saturating at 3.
    fn inc(&mut self) {
        self.0 = (self.0 + 1).min(3);
    }

    /// Decrements, saturating at 0.
    pub fn dec(&mut self) {
        self.0 = self.0.saturating_sub(1);
    }

    /// Strengthens toward `high` (inc if true, dec if false).
    pub(crate) fn train(&mut self, high: bool) {
        if high {
            self.inc()
        } else {
            self.dec()
        }
    }
}

/// An exit-prediction entry: a 3-bit exit ID plus hysteresis.
///
/// The hysteresis counter resists replacement: a mispredicted exit first
/// weakens the entry, and only a second miss replaces the stored exit ID
/// (the standard two-level-predictor update generalized from bits to IDs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ExitEntry {
    /// Predicted 3-bit exit ID.
    pub exit: u8,
    /// Confidence/hysteresis.
    pub conf: SatCounter,
}

impl ExitEntry {
    /// Trains the entry with an observed exit.
    pub(crate) fn train(&mut self, actual: u8) {
        if self.exit == actual {
            self.conf.inc();
        } else if self.conf.value() == 0 {
            self.exit = actual;
            self.conf = SatCounter(1);
        } else {
            self.conf.dec();
        }
    }
}

/// A direct-mapped tagged table mapping partial tags to 64-bit values
/// (used for the BTB and CTB).
#[derive(Clone, Debug)]
pub(crate) struct TaggedTable {
    tags: Vec<u16>,
    values: Vec<u64>,
    valid: Vec<bool>,
    mask: usize,
}

impl TaggedTable {
    /// Creates a table with `entries` slots (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        TaggedTable {
            tags: vec![0; entries],
            values: vec![0; entries],
            valid: vec![false; entries],
            mask: entries - 1,
        }
    }

    fn slot(&self, key: u64) -> (usize, u16) {
        let idx = (key as usize) & self.mask;
        let tag = ((key >> self.mask.trailing_ones()) & 0xffff) as u16;
        (idx, tag)
    }

    /// Looks up `key`, returning the stored value on a tag hit.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<u64> {
        let (idx, tag) = self.slot(key);
        (self.valid[idx] && self.tags[idx] == tag).then(|| self.values[idx])
    }

    /// Installs `value` under `key`, evicting any alias.
    pub fn insert(&mut self, key: u64, value: u64) {
        let (idx, tag) = self.slot(key);
        self.tags[idx] = tag;
        self.values[idx] = value;
        self.valid[idx] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_counter_saturates() {
        let mut c = SatCounter::default();
        assert_eq!(c.value(), 0);
        c.dec();
        assert_eq!(c.value(), 0);
        for _ in 0..10 {
            c.inc();
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_high());
        c.train(false);
        c.train(false);
        assert!(!c.is_high());
    }

    #[test]
    fn exit_entry_has_hysteresis() {
        let mut e = ExitEntry::default();
        e.train(5);
        e.train(5);
        assert_eq!(e.exit, 5);
        // One differing outcome weakens but does not replace...
        e.train(2);
        assert_eq!(e.exit, 5);
        // ...until confidence is exhausted.
        e.train(2);
        e.train(2);
        assert_eq!(e.exit, 2);
    }

    #[test]
    fn tagged_table_hits_and_aliases() {
        let mut t = TaggedTable::new(16);
        assert_eq!(t.lookup(42), None);
        t.insert(42, 0xabc);
        assert_eq!(t.lookup(42), Some(0xabc));
        // Same index, different tag: miss, then replace.
        let alias = 42 + 16 * 7;
        assert_eq!(t.lookup(alias), None);
        t.insert(alias, 0xdef);
        assert_eq!(t.lookup(alias), Some(0xdef));
        assert_eq!(t.lookup(42), None);
    }

    #[test]
    #[should_panic]
    fn tagged_table_requires_power_of_two() {
        let _ = TaggedTable::new(12);
    }
}
