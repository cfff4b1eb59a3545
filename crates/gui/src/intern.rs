//! A global, deterministic string interner.
//!
//! Every widget-facing string (`tag`/`label`/`name`/`value`/`placeholder`/
//! `options`) is stored as a [`Sym`] — a `u32` handle into a process-wide
//! table of leaked `&'static str`s. Equal strings always intern to the same
//! id, distinct strings never alias, so widget comparison is an integer
//! compare and in-process keys (the rebuild key) can use the id instead
//! of re-hashing the bytes. The table starts out holding `PREINTERNED`:
//! the empty string and the widget kinds' default tags, at fixed ids, so
//! a new widget's tag is a constant and never a lookup.
//!
//! Reads do not lock. The table is append-only and its strings are leaked,
//! so an id, once assigned, names the same `&'static str` forever. Each
//! thread therefore keeps a mirror of a prefix of the table, both its
//! strings and its map: [`Sym::as_str`] reads the mirrored strings and
//! [`intern`] the mirrored map, and the table's `Mutex` is taken only when
//! a thread meets an id or a string its mirror does not hold yet. Every
//! time it is taken, the mirror copies the table's new tail, one entry at
//! a time, so the mirror's vector and map grow at exactly the sizes the
//! table's did.
//!
//! Determinism contract: the other ids are assigned in first-intern order,
//! which is deterministic when one thread interns and *stable enough* for
//! every in-process use (ids never cross a process boundary — serde
//! writes the resolved string, never the id, and `frame_hash` folds string
//! bytes, not ids, so all byte-compared artifacts are interner-blind). New
//! strings are added under the table's `Mutex`, so the *aggregate* counters
//! are deterministic even under a multi-worker fleet: each unique string is
//! a miss exactly once, every other call is a hit (from the thread's map or
//! from the table), and merged totals are a pure function of the seeds.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, OnceLock};

use eclair_trace::perf;
use serde::{Deserialize, Serialize, Value};

/// Interned string handle. `Copy`, 4 bytes, derefs to the string it names.
///
/// Equality between two `Sym`s is an id compare; equality against `str` /
/// `String` compares contents. `Ord` compares contents so sorted output
/// never depends on intern order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    map: StrMap,
    strings: Vec<&'static str>,
}

/// A string-to-id map under [`FxHasher`].
type StrMap = HashMap<&'static str, u32, BuildHasherDefault<FxHasher>>;

/// The Fx hash (Firefox's, later rustc's): a rotate, xor and multiply per
/// 8-byte word. Much cheaper than the default SipHash on the short strings
/// the interner sees, and it needs no seed. Neither map is ever iterated,
/// so the hash decides speed only: ids come from the table's insertion
/// order. It does not resist collisions crafted on purpose, which a
/// simulator's strings are not.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        let rest = words.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
    }

    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The strings the table holds from its creation, each at its index as
/// id: the empty string, then the HTML tags the widget kinds render as
/// by default ([`crate::WidgetKind::default_tag`]), so that a new widget
/// takes its tag's handle without a lookup.
pub(crate) const PREINTERNED: [&str; 19] = [
    "", "body", "div", "form", "h2", "p", "button", "a", "input", "textarea", "select", "tr", "td",
    "li", "svg", "img", "dialog", "span", "hr",
];

fn table() -> MutexGuard<'static, Interner> {
    static TABLE: OnceLock<Mutex<Interner>> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            Mutex::new(Interner {
                map: PREINTERNED.into_iter().zip(0..).collect(),
                strings: PREINTERNED.to_vec(),
            })
        })
        .lock()
        .expect("interner poisoned")
}

/// One thread's lock-free copy of a prefix of the table.
#[derive(Default)]
struct Local {
    strings: Vec<&'static str>,
    map: StrMap,
}

impl Local {
    /// Copy the table's entries past the mirrored prefix.
    fn catch_up(&mut self, t: &Interner) {
        for &s in &t.strings[self.strings.len()..] {
            self.strings.push(s);
            self.map.insert(s, t.map[s]);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Intern `s`, returning its stable handle. Repeated calls with equal
/// strings return the same `Sym`; distinct strings never share one.
pub fn intern(s: &str) -> Sym {
    // During thread-local teardown the mirror may be gone: use the table.
    LOCAL
        .try_with(|local| {
            let mut local = local.borrow_mut();
            if let Some(&id) = local.map.get(s) {
                perf::record(|c| c.intern_hits += 1);
                return Sym(id);
            }
            let mut t = table();
            let sym = intern_locked(&mut t, s);
            local.catch_up(&t);
            sym
        })
        .unwrap_or_else(|_| intern_locked(&mut table(), s))
}

/// Look `s` up in the locked table, adding it if it is new.
fn intern_locked(t: &mut Interner, s: &str) -> Sym {
    if let Some(&id) = t.map.get(s) {
        perf::record(|c| c.intern_hits += 1);
        return Sym(id);
    }
    let id = u32::try_from(t.strings.len()).expect("interner overflow");
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    t.strings.push(leaked);
    t.map.insert(leaked, id);
    let size = t.strings.len() as u64;
    perf::record(|c| {
        c.intern_misses += 1;
        c.intern_table_size = c.intern_table_size.max(size);
    });
    Sym(id)
}

/// Number of distinct strings interned so far in this process.
pub fn table_size() -> usize {
    table().strings.len()
}

impl Sym {
    /// The empty string's handle (id 0, pre-interned).
    pub const EMPTY: Sym = Sym(0);

    /// The handle of `PREINTERNED[id]`, which the table holds from its
    /// creation.
    pub(crate) const fn preinterned(id: usize) -> Sym {
        assert!(id < PREINTERNED.len(), "not a pre-interned id");
        Sym(id as u32)
    }

    /// Resolve to the interned string.
    pub fn as_str(self) -> &'static str {
        let id = self.0 as usize;
        // During thread-local teardown the mirror may be gone: use the table.
        LOCAL
            .try_with(|local| {
                let mut local = local.borrow_mut();
                if let Some(&s) = local.strings.get(id) {
                    return s;
                }
                local.catch_up(&table());
                local.strings[id]
            })
            .unwrap_or_else(|_| table().strings[id])
    }

    /// The raw id. For in-process signature folding only — ids are
    /// intern-order dependent and must never be serialized or hashed into
    /// a byte-compared artifact.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl Default for Sym {
    fn default() -> Self {
        Sym::EMPTY
    }
}

impl Deref for Sym {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Self {
        intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        intern(&s)
    }
}

impl From<&Sym> for Sym {
    fn from(s: &Sym) -> Self {
        *s
    }
}

impl From<Sym> for String {
    fn from(s: Sym) -> Self {
        s.as_str().to_owned()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

// Serde writes the resolved string, never the id: intern ids are assigned
// in first-intern order and must not leak into any serialized artifact.
impl Serialize for Sym {
    fn write_json<O: serde::Output>(&self, out: &mut O) {
        self.as_str().write_json(out);
    }
}

impl Deserialize for Sym {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => Ok(intern(s)),
            other => Err(serde::Error::custom(format!(
                "Sym: expected string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_intern_to_the_same_sym() {
        let a = intern("submit-order");
        let owned = String::from("submit-order");
        let b = intern(&owned);
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "submit-order");
    }

    #[test]
    fn distinct_strings_never_alias() {
        let a = intern("alpha-unique-x");
        let b = intern("beta-unique-x");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn empty_is_id_zero_and_default() {
        assert_eq!(intern(""), Sym::EMPTY);
        assert_eq!(Sym::default().id(), 0);
        assert!(Sym::default().is_empty());
    }

    #[test]
    fn content_comparisons_against_plain_strings() {
        let s = intern("Save changes");
        assert_eq!(s, "Save changes");
        assert_eq!("Save changes", s);
        assert_eq!(s, "Save changes".to_owned());
        assert!(s.to_lowercase() == "save changes"); // Deref methods work.
    }

    #[test]
    fn ord_is_by_content_not_intern_order() {
        let z = intern("zzz-ord-test");
        let a = intern("aaa-ord-test");
        assert!(a < z, "content order, despite z interning first");
    }

    #[test]
    fn serde_round_trips_the_string_not_the_id() {
        let s = intern("serde-round-trip");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"serde-round-trip\"");
        let back: Sym = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn a_sym_resolves_on_a_thread_that_never_saw_it() {
        let sym = intern("cross-thread-resolve-once");
        let seen = std::thread::spawn(move || {
            let mirrored = LOCAL.with(|l| l.borrow().strings.len());
            // The fresh mirror is empty: resolving copies the table's tail.
            (mirrored, sym.as_str(), sym.to_string())
        })
        .join()
        .unwrap();
        assert_eq!(seen.0, 0);
        assert_eq!(seen.1, "cross-thread-resolve-once");
        assert_eq!(seen.2, "cross-thread-resolve-once");
    }

    #[test]
    fn threads_interning_overlapping_sets_agree_on_every_id() {
        const THREADS: usize = 4;
        let words: Vec<String> = (0..120).map(|i| format!("overlap-{i}")).collect();
        let barrier = std::sync::Barrier::new(THREADS);
        let results: Vec<(Vec<(String, Sym)>, perf::PerfCounters)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (words, barrier) = (&words, &barrier);
                    s.spawn(move || {
                        // Each thread interns a different, overlapping
                        // window, starting at a different place, twice.
                        let mine: Vec<&String> =
                            words.iter().cycle().skip(t * 30).take(60).collect();
                        barrier.wait();
                        let mut got = Vec::new();
                        for _ in 0..2 {
                            for w in &mine {
                                got.push(((*w).clone(), intern(w)));
                            }
                        }
                        (got, perf::snapshot())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut ids: HashMap<String, u32> = HashMap::new();
        for (got, _) in &results {
            for (w, sym) in got {
                assert_eq!(sym.as_str(), w, "resolves on another thread");
                assert_eq!(*ids.entry(w.clone()).or_insert(sym.id()), sym.id(), "{w}");
            }
        }
        let distinct: std::collections::HashSet<u32> = ids.values().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "distinct strings never alias");
        // Determinism contract: each distinct string is a miss exactly
        // once over all threads; every other call is a hit.
        let misses: u64 = results.iter().map(|(_, c)| c.intern_misses).sum();
        let hits: u64 = results.iter().map(|(_, c)| c.intern_hits).sum();
        assert_eq!(misses, ids.len() as u64);
        assert_eq!(hits + misses, (THREADS * 2 * 60) as u64);
    }

    #[test]
    fn resolving_during_thread_local_teardown_uses_the_table() {
        type Seen = std::sync::Arc<Mutex<Option<(bool, &'static str, Sym)>>>;
        struct ResolveOnDrop(Sym, Seen);
        impl Drop for ResolveOnDrop {
            fn drop(&mut self) {
                let mirror_gone = LOCAL.try_with(|_| ()).is_err();
                let again = intern("teardown-resolve");
                *self.1.lock().unwrap() = Some((mirror_gone, self.0.as_str(), again));
            }
        }
        thread_local! {
            static LATE: RefCell<Option<ResolveOnDrop>> = const { RefCell::new(None) };
        }
        let sym = intern("teardown-resolve");
        let seen: Seen = Default::default();
        let out = seen.clone();
        std::thread::spawn(move || {
            // `LATE` registers its destructor before the mirror does, so
            // it runs after the mirror is destroyed (destructors run in
            // reverse order of registration).
            LATE.with(|l| *l.borrow_mut() = Some(ResolveOnDrop(sym, out)));
            assert_eq!(sym.as_str(), "teardown-resolve");
        })
        .join()
        .unwrap();
        let (mirror_gone, resolved, again) = seen.lock().unwrap().take().unwrap();
        assert!(mirror_gone, "the drop ran after the mirror was destroyed");
        assert_eq!(resolved, "teardown-resolve");
        assert_eq!(again, sym);
    }
}
