//! Concurrency-usage (CU) model: the static table `M` of the paper.
//!
//! A [`Cu`] is the `(file, line, kind)` tuple of section III-B.1; a
//! [`CuTable`] is the model `M` — the set of all CU points of a program,
//! used both as the yield-injection site list and as the skeleton of the
//! coverage-requirement universe.

use crate::intern::Istr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The kind of concurrency primitive used at a source location.
///
/// Mirrors the paper's taxonomy: `k ∈ Channel ∪ Sync ∪ Go`.
///
/// ```
/// use goat_model::CuKind;
/// assert!(CuKind::Send.is_channel());
/// assert!(CuKind::Lock.is_sync());
/// assert!(CuKind::Select.is_go());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CuKind {
    // Channel = {send, receive, close}
    /// Channel send (`ch.send(v)`), potentially blocking.
    Send,
    /// Channel receive (`ch.recv()`), potentially blocking.
    Recv,
    /// Channel close (`ch.close()`), an unblocking action.
    Close,
    // Sync = {lock, unlock, wait, add, done, signal, broadcast}
    /// Mutex/RwLock acquisition, potentially blocking.
    Lock,
    /// Mutex/RwLock release, an unblocking action.
    Unlock,
    /// WaitGroup wait or condition-variable wait, potentially blocking.
    Wait,
    /// WaitGroup add.
    Add,
    /// WaitGroup done, an unblocking action.
    Done,
    /// Condition-variable signal, an unblocking action.
    Signal,
    /// Condition-variable broadcast, an unblocking action.
    Broadcast,
    // Go = {go, select, range}
    /// Goroutine creation (`go(...)`).
    Go,
    /// A `select` statement over channel operations.
    Select,
    /// Iteration over a channel until it is closed (`for v in ch.iter()`).
    Range,
}

impl CuKind {
    /// All CU kinds, in a stable order.
    pub const ALL: [CuKind; 13] = [
        CuKind::Send,
        CuKind::Recv,
        CuKind::Close,
        CuKind::Lock,
        CuKind::Unlock,
        CuKind::Wait,
        CuKind::Add,
        CuKind::Done,
        CuKind::Signal,
        CuKind::Broadcast,
        CuKind::Go,
        CuKind::Select,
        CuKind::Range,
    ];

    /// Is this kind in the paper's `Channel` class?
    pub fn is_channel(self) -> bool {
        matches!(self, CuKind::Send | CuKind::Recv | CuKind::Close)
    }

    /// Is this kind in the paper's `Sync` class?
    pub fn is_sync(self) -> bool {
        matches!(
            self,
            CuKind::Lock
                | CuKind::Unlock
                | CuKind::Wait
                | CuKind::Add
                | CuKind::Done
                | CuKind::Signal
                | CuKind::Broadcast
        )
    }

    /// Is this kind in the paper's `Go` class?
    pub fn is_go(self) -> bool {
        matches!(self, CuKind::Go | CuKind::Select | CuKind::Range)
    }

    /// Can an operation of this kind block the executing goroutine?
    ///
    /// These are the *critical points* of section II-C: their behaviour
    /// directly impacts the blocking behaviour of the program, and GoAT
    /// injects yield handlers in front of every one of them.
    pub fn may_block(self) -> bool {
        matches!(
            self,
            CuKind::Send
                | CuKind::Recv
                | CuKind::Lock
                | CuKind::Wait
                | CuKind::Select
                | CuKind::Range
        )
    }

    /// Is this an *unblocking action* in the sense of Req4 (Table I)?
    pub fn is_unblocking_action(self) -> bool {
        matches!(
            self,
            CuKind::Close | CuKind::Unlock | CuKind::Signal | CuKind::Broadcast | CuKind::Done
        )
    }

    /// Short lowercase mnemonic, as printed in the paper's Table III.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CuKind::Send => "send",
            CuKind::Recv => "recv",
            CuKind::Close => "close",
            CuKind::Lock => "lock",
            CuKind::Unlock => "unlock",
            CuKind::Wait => "wait",
            CuKind::Add => "add",
            CuKind::Done => "done",
            CuKind::Signal => "signal",
            CuKind::Broadcast => "broadcast",
            CuKind::Go => "go",
            CuKind::Select => "select",
            CuKind::Range => "range",
        }
    }
}

impl fmt::Display for CuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A concurrency usage: one `(file, line, kind)` tuple of the model `M`.
///
/// `Copy`: the file path is an interned [`Istr`], so a CU is two words
/// and cloning one (e.g. into every trace event) allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Cu {
    /// Source file (stored as given; comparisons use suffix matching so
    /// that absolute build paths and repo-relative paths interoperate).
    pub file: Istr,
    /// 1-based line number.
    pub line: u32,
    /// Primitive kind at this location.
    pub kind: CuKind,
}

impl Cu {
    /// Create a CU from its components (interning the file path).
    pub fn new(file: impl AsRef<str>, line: u32, kind: CuKind) -> Self {
        Cu { file: Istr::new(file), line, kind }
    }

    /// A CU at a fixed pseudo-location such as `goat:watcher`: a site of
    /// the tool itself rather than a source line of the program under
    /// test. It carries line 0, which no source location has, and
    /// renders as the bare site name, so tool-internal sites never print
    /// the tool's own source lines.
    pub fn pseudo(site: Istr, kind: CuKind) -> Self {
        Cu { file: site, line: 0, kind }
    }

    /// Is this a [`Cu::pseudo`] site?
    pub fn is_pseudo(&self) -> bool {
        self.line == 0
    }

    /// The location alone: `file:line`, or the bare name of a pseudo-site.
    pub fn location(&self) -> String {
        if self.is_pseudo() {
            self.file.to_string()
        } else {
            format!("{}:{}", self.file, self.line)
        }
    }

    /// Do two CU locations denote the same source point?
    ///
    /// File names are compared by the longer one ending with the shorter
    /// one (path-component aligned), so `/build/src/kernels/moby.rs`
    /// matches `kernels/moby.rs`.
    pub fn same_site(&self, other: &Cu) -> bool {
        self.line == other.line && self.kind == other.kind && files_match(&self.file, &other.file)
    }
}

/// Suffix-style file-path matching used throughout the CU model.
pub fn files_match(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return false;
    }
    long.ends_with(short)
        && long[..long.len() - short.len()]
            .chars()
            .next_back()
            .map(|c| c == '/' || c == '\\')
            .unwrap_or(true)
}

impl fmt::Display for Cu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pseudo() {
            write!(f, "{} [{}]", self.file, self.kind)
        } else {
            write!(f, "{}:{} [{}]", self.file, self.line, self.kind)
        }
    }
}

/// Index of a CU inside a [`CuTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CuId(pub usize);

impl fmt::Display for CuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cu{}", self.0)
    }
}

/// The static model `M`: a deduplicated, ordered table of CU points.
///
/// ```
/// use goat_model::{Cu, CuKind, CuTable};
/// let mut m = CuTable::new();
/// let id = m.insert(Cu::new("a.rs", 10, CuKind::Send));
/// assert_eq!(m.insert(Cu::new("a.rs", 10, CuKind::Send)), id); // dedup
/// assert_eq!(m.len(), 1);
/// assert!(m.lookup("src/a.rs", 10, CuKind::Send).is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CuTable {
    entries: Vec<Cu>,
    // (line, kind, file) -> id; file kept in key map for exact entries,
    // suffix matching is done in `lookup`.
    #[serde(skip)]
    index: BTreeMap<(u32, CuKind), Vec<usize>>,
}

impl CuTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a table from an iterator of CUs (deduplicating).
    pub fn from_cus<I: IntoIterator<Item = Cu>>(iter: I) -> Self {
        let mut t = Self::new();
        for cu in iter {
            t.insert(cu);
        }
        t
    }

    /// Number of CU entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a CU, returning its id. Re-inserting an equivalent site
    /// (same line/kind and matching file) returns the existing id.
    pub fn insert(&mut self, cu: Cu) -> CuId {
        if let Some(id) = self.lookup(&cu.file, cu.line, cu.kind) {
            return id;
        }
        let id = self.entries.len();
        self.index.entry((cu.line, cu.kind)).or_default().push(id);
        self.entries.push(cu);
        CuId(id)
    }

    /// Find the CU id for a dynamic call site, using suffix file matching.
    pub fn lookup(&self, file: &str, line: u32, kind: CuKind) -> Option<CuId> {
        let ids = self.index.get(&(line, kind))?;
        ids.iter().copied().find(|&i| files_match(&self.entries[i].file, file)).map(CuId)
    }

    /// Get a CU by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are only minted by this table).
    pub fn get(&self, id: CuId) -> &Cu {
        &self.entries[id.0]
    }

    /// Iterate over `(id, cu)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (CuId, &Cu)> {
        self.entries.iter().enumerate().map(|(i, cu)| (CuId(i), cu))
    }

    /// Merge another table into this one, deduplicating sites.
    pub fn merge(&mut self, other: &CuTable) {
        for (_, cu) in other.iter() {
            self.insert(*cu);
        }
    }

    /// Rebuild the lookup index (needed after deserialization).
    pub fn reindex(&mut self) {
        self.index.clear();
        for (i, cu) in self.entries.iter().enumerate() {
            self.index.entry((cu.line, cu.kind)).or_default().push(i);
        }
    }

    /// Number of CU entries of a given kind.
    pub fn count_kind(&self, kind: CuKind) -> usize {
        self.entries.iter().filter(|c| c.kind == kind).count()
    }
}

impl FromIterator<Cu> for CuTable {
    fn from_iter<I: IntoIterator<Item = Cu>>(iter: I) -> Self {
        Self::from_cus(iter)
    }
}

impl Extend<Cu> for CuTable {
    fn extend<I: IntoIterator<Item = Cu>>(&mut self, iter: I) {
        for cu in iter {
            self.insert(cu);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_taxonomy_is_partition() {
        for k in CuKind::ALL {
            let classes = [k.is_channel(), k.is_sync(), k.is_go()].iter().filter(|&&b| b).count();
            assert_eq!(classes, 1, "{k} must belong to exactly one class");
        }
    }

    #[test]
    fn may_block_and_unblocking_are_disjoint() {
        for k in CuKind::ALL {
            assert!(
                !(k.may_block() && k.is_unblocking_action()),
                "{k} cannot both block and unblock"
            );
        }
    }

    #[test]
    fn files_match_suffix() {
        assert!(files_match("a/b/c.rs", "b/c.rs"));
        assert!(files_match("b/c.rs", "a/b/c.rs"));
        assert!(files_match("c.rs", "c.rs"));
        assert!(!files_match("bb/c.rs", "b/c.rs"));
        assert!(!files_match("a/b/c.rs", "d.rs"));
        assert!(!files_match("a.rs", ""));
    }

    #[test]
    fn table_dedups_and_looks_up() {
        let mut t = CuTable::new();
        let a = t.insert(Cu::new("src/k.rs", 5, CuKind::Send));
        let b = t.insert(Cu::new("/abs/path/src/k.rs", 5, CuKind::Send));
        assert_eq!(a, b);
        let c = t.insert(Cu::new("src/k.rs", 5, CuKind::Recv));
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("k.rs", 5, CuKind::Send), Some(a));
        assert_eq!(t.lookup("k.rs", 6, CuKind::Send), None);
    }

    #[test]
    fn merge_accumulates_without_duplicates() {
        let mut a =
            CuTable::from_cus([Cu::new("x.rs", 1, CuKind::Go), Cu::new("x.rs", 2, CuKind::Send)]);
        let b =
            CuTable::from_cus([Cu::new("x.rs", 2, CuKind::Send), Cu::new("x.rs", 3, CuKind::Lock)]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn reindex_restores_lookup() {
        let mut t = CuTable::from_cus([Cu::new("x.rs", 1, CuKind::Go)]);
        t.index.clear();
        assert!(t.lookup("x.rs", 1, CuKind::Go).is_none());
        t.reindex();
        assert!(t.lookup("x.rs", 1, CuKind::Go).is_some());
    }

    #[test]
    fn display_formats() {
        let cu = Cu::new("m.rs", 42, CuKind::Select);
        assert_eq!(cu.to_string(), "m.rs:42 [select]");
        assert_eq!(cu.location(), "m.rs:42");
        assert_eq!(CuId(3).to_string(), "cu3");
        let pseudo = Cu::pseudo(Istr::new("goat:watcher"), CuKind::Recv);
        assert!(pseudo.is_pseudo() && !cu.is_pseudo());
        assert_eq!(pseudo.to_string(), "goat:watcher [recv]");
        assert_eq!(pseudo.location(), "goat:watcher");
    }
}
