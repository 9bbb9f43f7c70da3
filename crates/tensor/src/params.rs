//! Trainable parameter storage.
//!
//! Parameters live outside the autograd tape so a fresh [`Graph`](crate::Graph)
//! can be built every step while values, gradients, and optimizer state
//! persist across steps.
//!
//! Values are reference-counted: an autograd tape's parameter leaf shares
//! the set's storage instead of copying it, and every write goes through
//! [`Arc::make_mut`], which copies only while such a tape is still alive.
//! A training step therefore drops its tape before the optimizer writes.
//!
//! Each value also carries its GEMM panels ([`LazyPack`]), built by the
//! first product that would pack the value anyway and shared with every
//! tape that reads it, so a weight is packed once rather than once per
//! product. Every write drops them. Packing is a pure copy, so a product
//! over the panels is bit-identical to one that packs per call; the
//! `tensor.params.packed.bytes` gauge counts the panels alive.

use crate::gemm::PackedB;
use crate::matrix::Matrix;
use adamel_obs::mem::MemScope;
use std::sync::{Arc, OnceLock};

/// A parameter value's GEMM panels, packed on first use.
#[derive(Default)]
pub(crate) struct LazyPack(OnceLock<(PackedB, MemScope)>);

impl LazyPack {
    /// The panels of `value`, the value this cell was handed out with,
    /// packed on the first call.
    pub(crate) fn panels(&self, value: &Matrix) -> &PackedB {
        &self
            .0
            .get_or_init(|| {
                let panels = PackedB::pack(value);
                let gauge = MemScope::new("tensor.params.packed.bytes", panels.bytes());
                (panels, gauge)
            })
            .0
    }
}

/// Handle to a parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct ParamEntry {
    name: String,
    value: Arc<Matrix>,
    /// The panels of `value`; replaced on every write.
    pack: Arc<LazyPack>,
    grad: Matrix,
}

/// A named collection of trainable matrices with gradient buffers.
#[derive(Default)]
pub struct ParamSet {
    entries: Vec<ParamEntry>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle. Names are for
    /// introspection and need not be unique (e.g. per-feature weights share a
    /// prefix).
    pub fn insert(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        let (name, value, pack) = (name.into(), Arc::new(value), Arc::default());
        self.entries.push(ParamEntry { name, value, pack, grad });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters, as reported in the paper's §4.5
    /// complexity analysis.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// The storage of a parameter's current value and its panels, shared
    /// rather than copied (a tape's parameter leaf holds them).
    pub(crate) fn shared(&self, id: ParamId) -> (Arc<Matrix>, Arc<LazyPack>) {
        let e = &self.entries[id.0];
        (Arc::clone(&e.value), Arc::clone(&e.pack))
    }

    /// Whether a product has packed the parameter's current value.
    #[cfg(test)]
    pub(crate) fn is_packed(&self, id: ParamId) -> bool {
        self.entries[id.0].pack.0.get().is_some()
    }

    /// Mutable value access (used by optimizers and serialization). Copies
    /// the value first only while a tape still shares it, and drops its
    /// panels.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.value_and_grad_mut(id).0
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].grad
    }

    /// Mutable gradient access (used by `Graph::backward`).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0].grad
    }

    /// Simultaneous mutable value / immutable gradient access for one
    /// parameter — lets optimizers update in place without cloning the
    /// gradient. Drops the value's panels, as `value_mut` does.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Matrix, &Matrix) {
        let e = &mut self.entries[id.0];
        e.pack = Arc::default();
        (Arc::make_mut(&mut e.value), &e.grad)
    }

    /// The name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Handles of every parameter, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Zeroes every gradient buffer; call before each backward pass.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.fill_zero();
        }
    }

    /// Global L2 norm of all gradients; useful for clipping and diagnostics.
    pub fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .map(|e| e.grad.as_slice().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for e in &mut self.entries {
                for v in e.grad.as_mut_slice() {
                    *v *= s;
                }
            }
        }
    }

    /// Deep-copies all current values (snapshot for early stopping / best
    /// model tracking).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.entries.iter().map(|e| Matrix::clone(&e.value)).collect()
    }

    /// Restores values from a [`snapshot`](Self::snapshot). Panics if the
    /// shapes do not line up.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.entries.len(), "ParamSet::restore arity mismatch");
        for (e, s) in self.entries.iter_mut().zip(snapshot) {
            assert_eq!(e.value.shape(), s.shape(), "ParamSet::restore shape mismatch");
            e.value = Arc::new(s.clone());
            e.pack = Arc::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_count_scalars() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(3, 4));
        let b = p.insert("b", Matrix::zeros(1, 4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 16);
        assert_eq!(p.name(a), "w");
        assert_eq!(p.name(b), "b");
    }

    #[test]
    fn zero_grads_resets() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(2, 2));
        p.grad_mut(a).add_assign(&Matrix::full(2, 2, 3.0));
        assert_eq!(p.grad(a).sum(), 12.0);
        p.zero_grads();
        assert_eq!(p.grad(a).sum(), 0.0);
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(1, 2));
        p.grad_mut(a).add_assign(&Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        p.clip_grad_norm(1.0);
        assert!((p.grad_norm() - 1.0).abs() < 1e-6);
        // Direction is preserved.
        let g = p.grad(a);
        assert!((g.get(0, 0) / g.get(0, 1) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn every_value_write_drops_the_pack() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::zeros(2, 16));
        let pack = |p: &ParamSet| {
            p.shared(a).1.panels(p.value(a));
            assert!(p.is_packed(a));
        };
        assert!(!p.is_packed(a), "insert packs nothing");
        pack(&p);
        p.value_mut(a).set(0, 0, 1.0);
        assert!(!p.is_packed(a), "value_mut kept the pack");
        pack(&p);
        p.value_and_grad_mut(a).0.set(0, 1, 2.0);
        assert!(!p.is_packed(a), "value_and_grad_mut kept the pack");
        pack(&p);
        let snap = p.snapshot();
        p.restore(&snap);
        assert!(!p.is_packed(a), "restore kept the pack");
        // Gradient-only updates and reads keep it.
        pack(&p);
        p.grad_mut(a).set(0, 0, 3.0);
        p.clip_grad_norm(1.0);
        p.zero_grads();
        let _ = p.value(a);
        assert!(p.is_packed(a));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut p = ParamSet::new();
        let a = p.insert("w", Matrix::full(2, 2, 1.0));
        let snap = p.snapshot();
        p.value_mut(a).add_assign(&Matrix::full(2, 2, 5.0));
        assert_eq!(p.value(a).get(0, 0), 6.0);
        p.restore(&snap);
        assert_eq!(p.value(a).get(0, 0), 1.0);
    }
}
