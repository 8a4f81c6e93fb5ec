//! The k-order: one degeneracy order of all vertices, kept as per-shell
//! sequences with `O(1)` comparable labels.
//!
//! Shell `k` is a doubly linked sequence `O_k` of the vertices with
//! coreness `k`; the whole order is `O_0 O_1 … O_kmax`. Inside a shell,
//! `label` increases along the sequence, so `x` precedes `y` iff
//! `(c(x), label(x)) < (c(y), label(y))`. New vertices take labels from
//! the gap they are spliced into; when the gap is too narrow the shell is
//! relabelled with even spacing, which is `O(|O_k|)` and rare: a
//! relabelled shell of `s` vertices has gaps of `2³² / (s + 1)`, and a
//! splice uses at most `MAX_STEP` of a gap per vertex.
//!
//! This type only keeps the sequences; which order is *valid* (every
//! vertex has at most `c(v)` neighbors after it) is maintained by
//! [`DeltaIndex`](crate::DeltaIndex).

use bestk_graph::{cast, VertexId};

/// "No vertex": the end of a sequence, or an empty shell.
pub(crate) const NIL: VertexId = VertexId::MAX;

/// Widest label step between spliced vertices: narrow enough that many
/// splices fit one gap before a relabel, wide enough to split again.
const MAX_STEP: u64 = 1 << 8;

/// Per-shell vertex sequences with order labels (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct KOrder {
    label: Vec<u32>,
    next: Vec<VertexId>,
    prev: Vec<VertexId>,
    /// First and last vertex of each shell, `NIL` when the shell is empty.
    head: Vec<VertexId>,
    tail: Vec<VertexId>,
}

impl KOrder {
    /// The order that lists shell by shell the vertices of `sequence` (a
    /// permutation of `0..coreness.len()`) in their relative order there.
    pub(crate) fn from_sequence(coreness: &[u32], kmax: u32, sequence: &[VertexId]) -> KOrder {
        let n = coreness.len();
        let shells = kmax as usize + 1;
        let mut order = KOrder {
            label: vec![0; n],
            next: vec![NIL; n],
            prev: vec![NIL; n],
            head: vec![NIL; shells],
            tail: vec![NIL; shells],
        };
        for &v in sequence {
            let k = coreness[v as usize] as usize;
            order.link_after(k, order.tail[k], v);
        }
        for k in 0..shells {
            order.relabel(k);
        }
        order
    }

    /// The order label of `v`: comparable with the labels of its shell.
    pub(crate) fn label(&self, v: VertexId) -> u32 {
        self.label[v as usize]
    }

    /// Number of shells, `kmax + 1`.
    pub(crate) fn num_shells(&self) -> usize {
        self.head.len()
    }

    /// Grows or shrinks the shell table to `shells` shells. Shells cut
    /// off must be empty.
    pub(crate) fn resize_shells(&mut self, shells: usize) {
        debug_assert!(self.head[shells.min(self.head.len())..]
            .iter()
            .all(|&h| h == NIL));
        self.head.resize(shells, NIL);
        self.tail.resize(shells, NIL);
    }

    /// The vertices of shell `k` in order.
    pub(crate) fn shell(&self, k: usize) -> impl Iterator<Item = VertexId> + '_ {
        std::iter::successors(Some(self.head[k]).filter(|&v| v != NIL), move |&v| {
            Some(self.next[v as usize]).filter(|&w| w != NIL)
        })
    }

    /// Checks the links and labels of every shell: each sequence is
    /// doubly linked end to end with strictly ascending labels. Returns
    /// the shells' vertex lists.
    pub(crate) fn check_links(&self) -> Result<Vec<Vec<VertexId>>, String> {
        let n = self.label.len();
        let mut shells = Vec::with_capacity(self.head.len());
        for k in 0..self.head.len() {
            let mut seq = Vec::new();
            let mut prev = NIL;
            let mut v = self.head[k];
            while v != NIL {
                if seq.len() >= n {
                    return Err(format!("shell {k} does not terminate"));
                }
                if self.prev[v as usize] != prev {
                    return Err(format!("vertex {v}: prev link broken in shell {k}"));
                }
                if prev != NIL && self.label[prev as usize] >= self.label[v as usize] {
                    return Err(format!("shell {k}: labels not ascending at vertex {v}"));
                }
                seq.push(v);
                prev = v;
                v = self.next[v as usize];
            }
            if self.tail[k] != prev {
                return Err(format!("shell {k}: tail is not the last vertex"));
            }
            shells.push(seq);
        }
        Ok(shells)
    }

    /// Removes `v` from shell `k`'s sequence.
    pub(crate) fn unlink(&mut self, k: usize, v: VertexId) {
        let (p, q) = (self.prev[v as usize], self.next[v as usize]);
        if p == NIL {
            self.head[k] = q;
        } else {
            self.next[p as usize] = q;
        }
        if q == NIL {
            self.tail[k] = p;
        } else {
            self.prev[q as usize] = p;
        }
        self.prev[v as usize] = NIL;
        self.next[v as usize] = NIL;
    }

    /// Splices `group` (unlinked vertices), in order, into shell `k` right
    /// after `anchor` (`NIL`: at the front), labelling it from the gap or,
    /// when the gap is too narrow, relabelling the whole shell.
    pub(crate) fn insert_after(&mut self, k: usize, anchor: VertexId, group: &[VertexId]) {
        let Some(&last) = group.last() else {
            return;
        };
        let mut at = anchor;
        for &v in group {
            self.link_after(k, at, v);
            at = v;
        }
        let lo = if anchor == NIL {
            0
        } else {
            u64::from(self.label[anchor as usize])
        };
        let succ = self.next[last as usize];
        let hi = if succ == NIL {
            u64::from(u32::MAX)
        } else {
            u64::from(self.label[succ as usize])
        };
        let g = group.len() as u64;
        if hi - lo > g {
            // Pack the group tightly against its anchor (or, at the front,
            // against the old head) so the rest of the gap stays free for
            // the next splice at the same spot — shells grow at their ends.
            let step = ((hi - lo) / (g + 1)).min(MAX_STEP);
            for (j, &v) in (1..).zip(group) {
                let label = if anchor == NIL {
                    hi - step * (g + 1 - j)
                } else {
                    lo + step * j
                };
                self.label[v as usize] = cast::u32_from_u64(label);
            }
        } else {
            self.relabel(k);
        }
    }

    /// Appends `group`, in order, to the end of shell `k`.
    pub(crate) fn push_back(&mut self, k: usize, group: &[VertexId]) {
        self.insert_after(k, self.tail[k], group);
    }

    /// Links the unlinked `v` into shell `k` right after `at` (`NIL`: at
    /// the front), leaving its label alone.
    fn link_after(&mut self, k: usize, at: VertexId, v: VertexId) {
        let succ = if at == NIL {
            self.head[k]
        } else {
            self.next[at as usize]
        };
        self.prev[v as usize] = at;
        self.next[v as usize] = succ;
        if at == NIL {
            self.head[k] = v;
        } else {
            self.next[at as usize] = v;
        }
        if succ == NIL {
            self.tail[k] = v;
        } else {
            self.prev[succ as usize] = v;
        }
    }

    /// Spreads shell `k`'s labels evenly over the label space, leaving
    /// equal gaps before the first and after the last vertex.
    fn relabel(&mut self, k: usize) {
        let len = self.shell(k).count() as u64;
        let step = u64::from(u32::MAX) / (len + 1);
        let mut v = self.head[k];
        let mut i = 1u64;
        while v != NIL {
            self.label[v as usize] = cast::u32_from_u64(i * step);
            i += 1;
            v = self.next[v as usize];
        }
    }

    /// Heap bytes held by the sequences and labels.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<u32>()
            * (self.label.capacity()
                + self.next.capacity()
                + self.prev.capacity()
                + self.head.capacity()
                + self.tail.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels_ascend(o: &KOrder, k: usize) -> bool {
        let seq: Vec<VertexId> = o.shell(k).collect();
        seq.windows(2).all(|w| o.label(w[0]) < o.label(w[1]))
    }

    #[test]
    fn from_sequence_splits_into_shells_in_sequence_order() {
        let coreness = [1, 0, 1, 2, 0];
        let o = KOrder::from_sequence(&coreness, 2, &[4, 2, 1, 0, 3]);
        assert_eq!(o.shell(0).collect::<Vec<_>>(), vec![4, 1]);
        assert_eq!(o.shell(1).collect::<Vec<_>>(), vec![2, 0]);
        assert_eq!(o.shell(2).collect::<Vec<_>>(), vec![3]);
        assert!(o.check_links().is_ok());
        assert!((0..3).all(|k| labels_ascend(&o, k)));
    }

    #[test]
    fn repeated_splices_into_one_gap_relabel_the_shell() {
        // 40 single-vertex splices right after vertex 0 halve the same gap
        // each time: far more than 32 bits of room, so the shell must be
        // relabelled along the way and still read back in order.
        let n = 42;
        let coreness = vec![0u32; n];
        let all: Vec<VertexId> = (0..42).collect();
        let mut o = KOrder::from_sequence(&coreness, 0, &all);
        for v in 2..42 {
            o.unlink(0, v);
        }
        for v in 2..42 {
            o.insert_after(0, 0, &[v]);
            assert!(labels_ascend(&o, 0), "after splicing {v}");
        }
        let mut want: Vec<VertexId> = vec![0];
        want.extend((2..42).rev());
        want.push(1);
        assert_eq!(o.shell(0).collect::<Vec<_>>(), want);
        assert!(o.check_links().is_ok());
    }

    #[test]
    fn unlink_and_push_back_move_vertices_between_shells() {
        let coreness = [0u32, 0, 0, 1];
        let mut o = KOrder::from_sequence(&coreness, 1, &[0, 1, 2, 3]);
        o.unlink(0, 1);
        o.unlink(0, 0);
        o.push_back(1, &[1, 0]);
        o.insert_after(0, NIL, &[]);
        assert_eq!(o.shell(0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(o.shell(1).collect::<Vec<_>>(), vec![3, 1, 0]);
        o.resize_shells(3);
        o.unlink(0, 2);
        o.insert_after(2, NIL, &[2]);
        assert_eq!(o.num_shells(), 3);
        assert!(o.check_links().is_ok());
        assert!((0..3).all(|k| labels_ascend(&o, k)));
    }
}
