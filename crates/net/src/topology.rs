//! Connectivity topology: adjacency, hop counts, components.
//!
//! Algorithms that predate fine ranging (DV-Hop) and the flood phases of
//! message passing both operate on the *graph* induced by the radio model.
//! This module provides that graph plus the BFS primitives they need.

use std::collections::VecDeque;

/// Undirected adjacency structure over node indices `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    adj: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds from an edge list over `n` nodes. Duplicate and self edges are
    /// ignored; neighbor lists come out sorted.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for n={n}");
            if a == b {
                continue;
            }
            adj[a].push(b);
            adj[b].push(a);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Topology { adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` iff there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of `v` in ascending order.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Mean degree over all nodes (0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        self.adj.iter().map(Vec::len).sum::<usize>() as f64 / self.adj.len() as f64
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// `true` iff `a` and `b` share an edge.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&b).is_ok()
    }

    /// BFS hop distance from `source` to every node; `None` where
    /// unreachable.
    pub fn hops_from(&self, source: usize) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.adj.len()];
        let mut queue = VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            // Nodes are only queued after their distance is set.
            let Some(d) = dist[v] else { continue };
            for &w in &self.adj[v] {
                if dist[w].is_none() {
                    dist[w] = Some(d + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Hop distances from every node in `sources` (one BFS per source),
    /// returned as `result[k][v]` = hops from `sources[k]` to `v`.
    pub fn hops_from_all(&self, sources: &[usize]) -> Vec<Vec<Option<u32>>> {
        sources.iter().map(|&s| self.hops_from(s)).collect()
    }

    /// Connected-component label per node (labels are arbitrary but dense
    /// from 0) and the number of components.
    pub fn components(&self) -> (Vec<usize>, usize) {
        let n = self.adj.len();
        let mut label = vec![usize::MAX; n];
        let mut next = 0usize;
        for start in 0..n {
            if label[start] != usize::MAX {
                continue;
            }
            let mut queue = VecDeque::from([start]);
            label[start] = next;
            while let Some(v) = queue.pop_front() {
                for &w in &self.adj[v] {
                    if label[w] == usize::MAX {
                        label[w] = next;
                        queue.push_back(w);
                    }
                }
            }
            next += 1;
        }
        (label, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Topology {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn construction_dedups_and_sorts() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(2), &[] as &[usize]);
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn degrees_and_average() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(t.degree(0), 2);
        assert_eq!(t.avg_degree(), 2.0);
        assert_eq!(t.edge_count(), 4);
    }

    #[test]
    fn connectivity_queries() {
        let t = Topology::from_edges(3, &[(0, 2)]);
        assert!(t.connected(0, 2));
        assert!(t.connected(2, 0));
        assert!(!t.connected(0, 1));
    }

    #[test]
    fn bfs_on_path() {
        let t = path_graph(5);
        let d = t.hops_from(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        let d2 = t.hops_from(2);
        assert_eq!(d2, vec![Some(2), Some(1), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let t = Topology::from_edges(4, &[(0, 1)]);
        let d = t.hops_from(0);
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn multi_source_hops() {
        let t = path_graph(4);
        let all = t.hops_from_all(&[0, 3]);
        assert_eq!(all[0][3], Some(3));
        assert_eq!(all[1][0], Some(3));
    }

    #[test]
    fn components_counting() {
        let t = Topology::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let (labels, count) = t.components();
        assert_eq!(count, 3); // {0,1,2}, {3}, {4,5}
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[5]);
    }

    #[test]
    fn hop_counts_satisfy_triangle_inequality() {
        // hops(a,c) <= hops(a,b) + hops(b,c) on a random-ish graph.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (1, 3),
            (2, 5),
            (5, 6),
        ];
        let t = Topology::from_edges(7, &edges);
        let all = t.hops_from_all(&(0..7).collect::<Vec<_>>());
        for a in 0..7 {
            for b in 0..7 {
                for c in 0..7 {
                    if let (Some(ac), Some(ab), Some(bc)) = (all[a][c], all[a][b], all[b][c]) {
                        assert!(ac <= ab + bc);
                    }
                }
            }
        }
    }
}
