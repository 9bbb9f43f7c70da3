//! Optimizers: Adam (the paper's choice, Kingma & Ba 2014) and plain SGD.

use crate::params::ParamSet;

/// Common interface so training loops can be generic over the optimizer.
pub trait Optimizer {
    /// Applies one update using the gradients currently stored in `params`,
    /// then leaves the gradients untouched (callers zero them).
    fn step(&mut self, params: &mut ParamSet);
    /// The configured learning rate.
    fn learning_rate(&self) -> f32;
    /// Changes the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam with bias correction; defaults match the paper's configuration
/// (lr = 1e-4) and the standard β/ε choices.
///
/// Each moment is one buffer over every scalar of the set, parameters laid
/// end to end in registration order: two allocations, not two per
/// parameter, so the state does not fragment the heap a training loop's
/// tapes churn through, and it goes back to the system whole when dropped.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates Adam with custom hyperparameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Self { lr, beta1, beta2, eps, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn with_lr(lr: f32) -> Self {
        Self::new(lr, 0.9, 0.999, 1e-8)
    }

    fn ensure_state(&mut self, params: &ParamSet) {
        let scalars = params.num_scalars();
        if self.m.len() == scalars {
            return;
        }
        assert!(
            self.m.is_empty(),
            "Adam: parameter set grew after the first step; create a new optimizer"
        );
        self.m = vec![0.0; scalars];
        self.v = vec![0.0; scalars];
    }
}

impl Default for Adam {
    fn default() -> Self {
        Self::with_lr(1e-4)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet) {
        adamel_obs::trace_span!("adam_step");
        crate::sanitize::check_grads_finite("adam", params);
        self.ensure_state(params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut offset = 0;
        for id in params.ids().collect::<Vec<_>>() {
            let (value, grad) = params.value_and_grad_mut(id);
            let span = offset..offset + value.len();
            offset = span.end;
            for (((val, mv), vv), g) in value
                .as_mut_slice()
                .iter_mut()
                .zip(&mut self.m[span.clone()])
                .zip(&mut self.v[span])
                .zip(grad.as_slice())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *val -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Vanilla stochastic gradient descent; used by the TLER baseline's logistic
/// regression and as a reference in tests.
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet) {
        crate::sanitize::check_grads_finite("sgd", params);
        for id in params.ids().collect::<Vec<_>>() {
            let lr = self.lr;
            let (value, grad) = params.value_and_grad_mut(id);
            for (v, g) in value.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *v -= lr * g;
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::matrix::Matrix;

    /// Minimizing (w - 3)² should drive w toward 3 with either optimizer.
    fn quadratic_descent(opt: &mut dyn Optimizer) -> f32 {
        let mut params = ParamSet::new();
        let w_id = params.insert("w", Matrix::scalar(0.0));
        for _ in 0..2000 {
            params.zero_grads();
            let mut g = Graph::new();
            let w = g.param(&params, w_id);
            let c = g.constant(Matrix::scalar(-3.0));
            let diff = g.add(w, c);
            let sq = g.mul(diff, diff);
            let loss = g.sum_all(sq);
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        params.value(w_id).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = quadratic_descent(&mut Sgd::new(0.05));
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = quadratic_descent(&mut Adam::with_lr(0.05));
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction, the first Adam step is ~lr in magnitude
        // regardless of the gradient scale.
        let mut params = ParamSet::new();
        let w_id = params.insert("w", Matrix::scalar(0.0));
        params.grad_mut(w_id).add_assign(&Matrix::scalar(1000.0));
        let mut opt = Adam::with_lr(0.1);
        opt.step(&mut params);
        assert!((params.value(w_id).item() + 0.1).abs() < 1e-3);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::with_lr(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.2);
        assert_eq!(opt.learning_rate(), 0.2);
    }
}
