//! Indexed binary max-heap ordering variables by VSIDS activity.

use crate::lit::Var;

/// A binary max-heap over variables keyed by an external activity array.
///
/// Supports `O(log n)` insertion and removal plus `decrease`/`increase`
/// notifications when a variable's activity changes, which is exactly the
/// interface VSIDS branching needs.
#[derive(Debug, Default)]
pub struct VarHeap {
    /// Heap of variable indices.
    heap: Vec<u32>,
    /// `position[v]` = index of `v` in `heap`, or `NOT_IN_HEAP`.
    position: Vec<u32>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl VarHeap {
    /// Creates an empty heap.
    pub fn new() -> VarHeap {
        VarHeap::default()
    }

    /// Extends internal arrays to cover `num_vars` variables.
    pub fn grow_to(&mut self, num_vars: usize) {
        self.position.resize(num_vars, NOT_IN_HEAP);
    }

    /// Returns `true` if `var` is currently in the heap.
    #[inline]
    pub fn contains(&self, var: Var) -> bool {
        self.position[var.index()] != NOT_IN_HEAP
    }

    /// Returns `true` if the heap has no elements.
    #[inline]
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of queued variables.
    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Inserts `var` (no-op if already present).
    pub fn insert(&mut self, var: Var, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        let idx = self.heap.len();
        self.heap.push(var.index() as u32);
        self.position[var.index()] = idx as u32;
        self.sift_up(idx, activity);
    }

    /// Removes every variable.
    pub fn clear(&mut self) {
        for &v in &self.heap {
            self.position[v as usize] = NOT_IN_HEAP;
        }
        self.heap.clear();
    }

    /// Removes and returns the variable with maximal activity.
    pub fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.position[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var::from_index(top as usize))
    }

    /// Restores heap order after `var`'s activity increased.
    pub fn update(&mut self, var: Var, activity: &[f64]) {
        let pos = self.position[var.index()];
        if pos != NOT_IN_HEAP {
            self.sift_up(pos as usize, activity);
        }
    }

    fn sift_up(&mut self, mut idx: usize, activity: &[f64]) {
        let item = self.heap[idx];
        while idx > 0 {
            let parent = (idx - 1) >> 1;
            if activity[self.heap[parent] as usize] >= activity[item as usize] {
                break;
            }
            self.heap[idx] = self.heap[parent];
            self.position[self.heap[idx] as usize] = idx as u32;
            idx = parent;
        }
        self.heap[idx] = item;
        self.position[item as usize] = idx as u32;
    }

    fn sift_down(&mut self, mut idx: usize, activity: &[f64]) {
        let item = self.heap[idx];
        loop {
            let left = 2 * idx + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && activity[self.heap[right] as usize] > activity[self.heap[left] as usize]
            {
                right
            } else {
                left
            };
            if activity[item as usize] >= activity[self.heap[child] as usize] {
                break;
            }
            self.heap[idx] = self.heap[child];
            self.position[self.heap[idx] as usize] = idx as u32;
            idx = child;
        }
        self.heap[idx] = item;
        self.position[item as usize] = idx as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut heap = VarHeap::new();
        heap.grow_to(4);
        for i in 0..4 {
            heap.insert(Var::from_index(i), &activity);
        }
        assert_eq!(heap.len(), 4);
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop_max(&activity))
            .map(|v| v.index())
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert!(heap.is_empty());
    }

    #[test]
    fn update_after_bump() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut heap = VarHeap::new();
        heap.grow_to(3);
        for i in 0..3 {
            heap.insert(Var::from_index(i), &activity);
        }
        activity[0] = 10.0;
        heap.update(Var::from_index(0), &activity);
        assert_eq!(heap.pop_max(&activity), Some(Var::from_index(0)));
    }

    #[test]
    fn clear_empties_and_allows_reinsertion() {
        let activity = vec![1.0, 2.0];
        let mut heap = VarHeap::new();
        heap.grow_to(2);
        heap.insert(Var::from_index(0), &activity);
        heap.insert(Var::from_index(1), &activity);
        heap.clear();
        assert!(heap.is_empty());
        assert!(!heap.contains(Var::from_index(0)));
        heap.insert(Var::from_index(0), &activity);
        assert_eq!(heap.pop_max(&activity), Some(Var::from_index(0)));
    }

    #[test]
    fn reinsert_is_noop() {
        let activity = vec![1.0];
        let mut heap = VarHeap::new();
        heap.grow_to(1);
        heap.insert(Var::from_index(0), &activity);
        heap.insert(Var::from_index(0), &activity);
        assert_eq!(heap.len(), 1);
    }
}
