//! The task dependence graph: predecessor counts plus successor lists.

/// A static DAG of tasks identified by dense indices `0..len`.
///
/// Construction records edges; execution (see [`crate::driver::run`]) decrements a
/// per-task pending counter — the paper's "notified twice → ready" rule
/// generalized to any in-degree.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// Number of predecessors of each task (the notify threshold).
    preds: Vec<u32>,
    /// Successor adjacency: tasks to notify when a task finishes.
    succs: Vec<Vec<u32>>,
}

impl TaskGraph {
    /// An edgeless graph of `len` tasks (all immediately ready).
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "task graph too large");
        Self {
            preds: vec![0; len],
            succs: vec![Vec::new(); len],
        }
    }

    /// Add a dependence edge: `to` cannot start until `from` completes.
    ///
    /// Duplicate edges are allowed and counted (a task notified through two
    /// parallel edges needs both notifications); self-edges panic since they
    /// would deadlock.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert_ne!(from, to, "self-dependence would deadlock");
        self.preds[to] += 1;
        self.succs[from].push(to as u32);
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// In-degree (notify threshold) of `task`.
    pub fn pred_count(&self, task: usize) -> u32 {
        self.preds[task]
    }

    /// Tasks notified when `task` completes.
    pub fn successors(&self, task: usize) -> &[u32] {
        &self.succs[task]
    }

    /// Tasks with no predecessors — the initial ready set.
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        self.preds
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == 0)
            .map(|(i, _)| i)
    }

    /// Verify the graph is acyclic by running Kahn's algorithm; returns a
    /// topological order, or `None` if a cycle exists. Used by tests and by
    /// debug assertions in the executor.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut pending = self.preds.clone();
        let mut order = Vec::with_capacity(self.len());
        let mut ready: Vec<usize> = self.roots().collect();
        while let Some(t) = ready.pop() {
            order.push(t);
            for &s in &self.succs[t] {
                pending[s as usize] -= 1;
                if pending[s as usize] == 0 {
                    ready.push(s as usize);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Longest-path depth of every task, roots at depth 0: `depth[t]` is
    /// the maximum number of edges on any path ending at `t`. On the
    /// triangular dependence graph this is exactly the diagonal index
    /// `c - r`, which is what the pipelined discipline rate-matches on.
    /// Returns `None` when the graph has a cycle.
    pub fn depths(&self) -> Option<Vec<u32>> {
        let order = self.topological_order()?;
        let mut depth = vec![0u32; self.len()];
        for &t in &order {
            for &s in &self.succs[t] {
                depth[s as usize] = depth[s as usize].max(depth[t] + 1);
            }
        }
        Some(depth)
    }

    /// Length of the longest path (in tasks), i.e. the critical path that
    /// bounds parallel speedup. Panics on a cyclic graph.
    pub fn critical_path_len(&self) -> usize {
        let order = self
            .topological_order()
            .expect("critical path of cyclic graph");
        let mut depth = vec![1usize; self.len()];
        for &t in &order {
            for &s in &self.succs[t] {
                depth[s as usize] = depth[s as usize].max(depth[t] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.topological_order(), Some(vec![]));
        assert_eq!(g.critical_path_len(), 0);
    }

    #[test]
    fn chain_graph() {
        let mut g = TaskGraph::new(4);
        for i in 0..3 {
            g.add_edge(i, i + 1);
        }
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.pred_count(3), 1);
        assert_eq!(g.topological_order(), Some(vec![0, 1, 2, 3]));
        assert_eq!(g.critical_path_len(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn diamond_graph() {
        let mut g = TaskGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        assert_eq!(g.pred_count(3), 2);
        assert_eq!(g.critical_path_len(), 3);
        let order = g.topological_order().unwrap();
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.topological_order(), None);
        assert_eq!(g.depths(), None);
    }

    #[test]
    fn depths_are_longest_paths() {
        // Diamond with a long side: 0 → 1 → 2 → 4 and 0 → 3 → 4; task 4's
        // depth follows the longer chain.
        let mut g = TaskGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        g.add_edge(2, 4);
        g.add_edge(3, 4);
        assert_eq!(g.depths(), Some(vec![0, 1, 2, 1, 3]));
        // Edgeless tasks are all roots at depth 0.
        assert_eq!(TaskGraph::new(3).depths(), Some(vec![0, 0, 0]));
    }

    #[test]
    fn duplicate_edges_counted() {
        let mut g = TaskGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.pred_count(1), 2);
        // Kahn still resolves because both notifications fire.
        assert!(g.topological_order().is_some());
    }

    #[test]
    #[should_panic(expected = "self-dependence")]
    fn self_edge_panics() {
        let mut g = TaskGraph::new(1);
        g.add_edge(0, 0);
    }
}
