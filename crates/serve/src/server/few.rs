//! [`Few`]: the list type of a run's members, legs, tried workers and
//! outcomes.

use std::ops::{Index, IndexMut};

/// A list that holds its first element inline and the rest in a `Vec`.
/// A one-member, one-leg, one-attempt run — the warm batch-1 request —
/// allocates none of its lists, and a coalesced window or a failover
/// takes the same code path with a longer tail.
pub(crate) struct Few<T> {
    first: Option<T>,
    /// Empty while `first` is `None`.
    rest: Vec<T>,
}

impl<T> Few<T> {
    pub(crate) const fn new() -> Few<T> {
        Few {
            first: None,
            rest: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.first.is_none() {
            self.first = Some(value);
        } else {
            self.rest.push(value);
        }
    }

    pub(crate) fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(&self.rest)
    }

    pub(crate) fn last(&self) -> Option<&T> {
        self.rest.last().or(self.first.as_ref())
    }

    /// Empties the list, yielding its elements in order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.first.take().into_iter().chain(self.rest.drain(..))
    }
}

impl<T> Index<usize> for Few<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match i {
            0 => self.first.as_ref().expect("index in bounds"),
            _ => &self.rest[i - 1],
        }
    }
}

impl<T> IndexMut<usize> for Few<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        match i {
            0 => self.first.as_mut().expect("index in bounds"),
            _ => &mut self.rest[i - 1],
        }
    }
}

impl<T> FromIterator<T> for Few<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Few<T> {
        let mut iter = iter.into_iter();
        let first = iter.next();
        // The tail allocates once for an iterator that knows its length.
        let mut rest = Vec::with_capacity(iter.size_hint().0);
        rest.extend(iter);
        Few { first, rest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_element_stays_inline_and_more_keep_their_order() {
        let mut few: Few<u32> = std::iter::once(7).collect();
        assert_eq!((few.len(), few[0], few.last()), (1, 7, Some(&7)));
        assert_eq!(few.rest.capacity(), 0, "one element allocates nothing");
        let eight: Few<u32> = (0..8).collect();
        assert_eq!(eight.rest.capacity(), 7, "a known length allocates once");
        few.push(8);
        few.push(9);
        few[2] += 1;
        assert_eq!(few.iter().copied().collect::<Vec<_>>(), [7, 8, 10]);
        assert_eq!(few.drain().collect::<Vec<_>>(), [7, 8, 10]);
        assert_eq!(few.len(), 0);
    }
}
