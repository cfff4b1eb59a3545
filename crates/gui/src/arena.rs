//! A widget's child list: a SmallVec-style vector with inline storage.

use serde::{Deserialize, Serialize, Value};

use crate::widget::WidgetId;

/// Inline capacity of [`ChildVec`]: child lists up to this long live inside
/// the widget itself, no heap allocation.
pub const CHILD_INLINE: usize = 8;

/// A widget's child list. Stores up to [`CHILD_INLINE`] ids inline and
/// spills to a heap `Vec` beyond that; derefs to `[WidgetId]` so read
/// paths (iteration, indexing, `contains`) look exactly like a `Vec`.
#[derive(Debug, Clone)]
pub struct ChildVec {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [WidgetId; CHILD_INLINE],
    },
    Heap(Vec<WidgetId>),
}

impl ChildVec {
    pub fn new() -> Self {
        Self {
            repr: Repr::Inline {
                len: 0,
                buf: [WidgetId(0); CHILD_INLINE],
            },
        }
    }

    pub fn push(&mut self, id: WidgetId) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if (*len as usize) < CHILD_INLINE {
                    buf[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(CHILD_INLINE * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(id);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(id),
        }
    }

    pub fn insert(&mut self, index: usize, id: WidgetId) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                assert!(index <= n, "insert index out of bounds");
                if n < CHILD_INLINE {
                    buf.copy_within(index..n, index + 1);
                    buf[index] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(CHILD_INLINE * 2);
                    v.extend_from_slice(&buf[..]);
                    v.insert(index, id);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.insert(index, id),
        }
    }

    /// Remove and return the id at `index`, shifting later children left.
    pub fn remove(&mut self, index: usize) -> WidgetId {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                assert!(index < n, "remove index out of bounds");
                let out = buf[index];
                buf.copy_within(index + 1..n, index);
                *len -= 1;
                out
            }
            Repr::Heap(v) => v.remove(index),
        }
    }

    /// Remove the first occurrence of `id`, if present.
    pub fn remove_item(&mut self, id: WidgetId) -> bool {
        if let Some(pos) = self.iter().position(|&c| c == id) {
            self.remove(pos);
            true
        } else {
            false
        }
    }

    pub fn as_slice(&self) -> &[WidgetId] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v.as_slice(),
        }
    }

    pub fn as_mut_slice(&mut self) -> &mut [WidgetId] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Whether the list has spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }
}

impl Default for ChildVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for ChildVec {
    type Target = [WidgetId];

    fn deref(&self) -> &[WidgetId] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for ChildVec {
    fn deref_mut(&mut self) -> &mut [WidgetId] {
        self.as_mut_slice()
    }
}

impl PartialEq for ChildVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ChildVec {}

impl From<Vec<WidgetId>> for ChildVec {
    fn from(v: Vec<WidgetId>) -> Self {
        if v.len() <= CHILD_INLINE {
            let mut cv = ChildVec::new();
            for id in v {
                cv.push(id);
            }
            cv
        } else {
            Self {
                repr: Repr::Heap(v),
            }
        }
    }
}

impl FromIterator<WidgetId> for ChildVec {
    fn from_iter<I: IntoIterator<Item = WidgetId>>(iter: I) -> Self {
        let mut cv = ChildVec::new();
        for id in iter {
            cv.push(id);
        }
        cv
    }
}

impl<'a> IntoIterator for &'a ChildVec {
    type Item = &'a WidgetId;
    type IntoIter = std::slice::Iter<'a, WidgetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Serialize for ChildVec {
    fn write_json<O: serde::Output>(&self, out: &mut O) {
        self.as_slice().write_json(out);
    }
}

impl Deserialize for ChildVec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Vec::<WidgetId>::from_value(v)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_vec_spills_past_inline_capacity() {
        let mut cv = ChildVec::new();
        for i in 0..CHILD_INLINE as u32 {
            cv.push(WidgetId(i));
        }
        assert!(!cv.spilled());
        cv.push(WidgetId(99));
        assert!(cv.spilled());
        assert_eq!(cv.len(), CHILD_INLINE + 1);
        assert_eq!(cv[CHILD_INLINE], WidgetId(99));
    }

    #[test]
    fn child_vec_insert_remove_and_rotate() {
        let mut cv: ChildVec = (0..5).map(WidgetId).collect();
        cv.insert(1, WidgetId(42));
        assert_eq!(cv.as_slice()[..3], [WidgetId(0), WidgetId(42), WidgetId(1)]);
        assert_eq!(cv.remove(1), WidgetId(42));
        cv.rotate_left(2); // via DerefMut to [WidgetId]
        assert_eq!(cv[0], WidgetId(2));
        assert!(cv.remove_item(WidgetId(3)));
        assert!(!cv.remove_item(WidgetId(3)));
        assert_eq!(cv.len(), 4);
    }

    #[test]
    fn child_vec_serde_matches_vec_json() {
        let cv: ChildVec = (0..10).map(WidgetId).collect();
        let json = serde_json::to_string(&cv).unwrap();
        let as_vec: Vec<WidgetId> = (0..10).map(WidgetId).collect();
        assert_eq!(json, serde_json::to_string(&as_vec).unwrap());
        let back: ChildVec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cv);
    }
}
