//! Disjoint-set union (union-find) with path compression and union by rank,
//! used by Kruskal's MST and connected-component analysis.

/// A disjoint-set forest over `0..n`.
///
/// ```
/// use ldmo_decomp::DisjointSets;
///
/// let mut d = DisjointSets::new(4);
/// assert!(d.union(0, 1));
/// assert_eq!(d.find(0), d.find(1));
/// assert_ne!(d.find(0), d.find(2));
/// ```
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // path compression
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_initially() {
        let mut d = DisjointSets::new(5);
        for i in 0..5 {
            assert_eq!(d.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut d = DisjointSets::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(!d.union(0, 2), "already connected");
        assert_eq!(d.find(0), d.find(2));
        assert_ne!(d.find(0), d.find(3));
    }

    #[test]
    fn empty_sets() {
        let d = DisjointSets::new(0);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    proptest! {
        #[test]
        fn transitivity(pairs in proptest::collection::vec((0usize..12, 0usize..12), 0..20)) {
            let mut d = DisjointSets::new(12);
            for (a, b) in &pairs {
                d.union(*a, *b);
            }
            for (a, b) in &pairs {
                prop_assert_eq!(d.find(*a), d.find(*b));
            }
            // connectivity must be an equivalence relation: check transitivity
            for x in 0..12 {
                for y in 0..12 {
                    for z in 0..12 {
                        if d.find(x) == d.find(y) && d.find(y) == d.find(z) {
                            prop_assert_eq!(d.find(x), d.find(z));
                        }
                    }
                }
            }
        }
    }
}
