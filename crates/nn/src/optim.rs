//! Optimizers: Adam (the paper's choice — "Adam computes individual
//! adaptive learning rates for different parameters which is more suitable
//! for large scale data"), its learning-rate schedule and gradient
//! clipping.

use crate::layers::{Layer, Param};

/// A step-decay learning-rate schedule: every `step_epochs` epochs the
/// learning rate is multiplied by `gamma`. Call [`LrSchedule::lr_at`] with
/// the current epoch and hand the result to the optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrSchedule {
    /// Initial learning rate.
    pub base_lr: f32,
    /// Epoch interval between decays.
    pub step_epochs: usize,
    /// Multiplicative decay factor per step.
    pub gamma: f32,
}

impl LrSchedule {
    /// The learning rate for `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        if self.step_epochs == usize::MAX || self.step_epochs == 0 {
            return self.base_lr;
        }
        self.base_lr * self.gamma.powi((epoch / self.step_epochs) as i32)
    }
}

/// Clips every parameter gradient of `net` to the global L2 norm
/// `max_norm`, returning the pre-clip norm. Standard protection against
/// the occasional exploding mini-batch.
pub fn clip_grad_norm(net: &mut dyn Layer, max_norm: f32) -> f32 {
    let mut sq_sum = 0.0f64;
    net.visit_params(&mut |p: &mut Param| {
        sq_sum += p
            .grad
            .as_slice()
            .iter()
            .map(|&g| f64::from(g) * f64::from(g))
            .sum::<f64>();
    });
    let norm = (sq_sum.sqrt()) as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        net.visit_params(&mut |p: &mut Param| {
            for g in p.grad.as_mut_slice() {
                *g *= scale;
            }
        });
    }
    norm
}

/// Adam optimizer with the standard bias-corrected moment estimates.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the usual defaults (β1 = 0.9, β2 = 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to every parameter of `net` using the
    /// gradients accumulated since the last [`Layer::zero_grad`].
    pub fn step(&mut self, net: &mut dyn Layer) {
        self.t += 1;
        let t = self.t as f64;
        let bc1 = 1.0 - (f64::from(self.beta1)).powf(t);
        let bc2 = 1.0 - (f64::from(self.beta2)).powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m_all, v_all) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        net.visit_params(&mut |p: &mut Param| {
            if m_all.len() <= idx {
                m_all.push(vec![0.0; p.value.len()]);
                v_all.push(vec![0.0; p.value.len()]);
            }
            let m = &mut m_all[idx];
            let v = &mut v_all[idx];
            assert_eq!(
                m.len(),
                p.value.len(),
                "parameter {} changed size between steps",
                p.name
            );
            let vals = p.value.as_mut_slice();
            let grads = p.grad.as_slice();
            for i in 0..vals.len() {
                let g = grads[i];
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let m_hat = f64::from(m[i]) / bc1;
                let v_hat = f64::from(v[i]) / bc2;
                vals[i] -= lr * (m_hat / (v_hat.sqrt() + f64::from(eps))) as f32;
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Linear};
    use crate::loss::{mse_loss, mse_loss_grad};
    use crate::Tensor;

    #[test]
    fn adam_fits_linear_regression() {
        // regress y = 2x1 - x2 + 0.5 with a single linear layer
        let mut net = Linear::new(2, 1, 5);
        let xs = [
            [0.0f32, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [0.5, -0.5],
            [-1.0, 0.5],
        ];
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x[0] - x[1] + 0.5).collect();
        let x = Tensor::from_vec(vec![6, 2], xs.iter().flatten().copied().collect());
        let y = Tensor::from_vec(vec![6, 1], ys);
        let mut adam = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            let pred = net.forward(&x, true);
            last = mse_loss(&pred, &y);
            let grad = mse_loss_grad(&pred, &y);
            net.zero_grad();
            let _ = net.backward(&grad);
            adam.step(&mut net);
        }
        assert!(last < 1e-3, "final loss {last}");
    }

    #[test]
    fn lr_schedule_decays_stepwise() {
        let s = LrSchedule {
            base_lr: 1.0,
            step_epochs: 10,
            gamma: 0.5,
        };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(10), 0.5);
        assert_eq!(s.lr_at(25), 0.25);
    }

    #[test]
    fn grad_clipping_caps_global_norm() {
        let mut net = Linear::new(2, 1, 3);
        let x = Tensor::from_vec(vec![1, 2], vec![100.0, -100.0]);
        let y = Tensor::from_vec(vec![1, 1], vec![0.0]);
        let pred = net.forward(&x, true);
        let grad = mse_loss_grad(&pred, &y);
        net.zero_grad();
        let _ = net.backward(&grad);
        let before = clip_grad_norm(&mut net, 1.0);
        assert!(before > 1.0, "test needs a large gradient, got {before}");
        let after = clip_grad_norm(&mut net, 1.0);
        assert!((after - 1.0).abs() < 1e-4, "post-clip norm {after}");
    }

    #[test]
    fn clipping_leaves_small_gradients_alone() {
        let mut net = Linear::new(2, 1, 3);
        let x = Tensor::from_vec(vec![1, 2], vec![0.01, 0.01]);
        let y = Tensor::from_vec(vec![1, 1], vec![0.0]);
        let pred = net.forward(&x, true);
        let grad = mse_loss_grad(&pred, &y);
        net.zero_grad();
        let _ = net.backward(&grad);
        let mut before = Vec::new();
        net.visit_params(&mut |p| before.extend_from_slice(p.grad.as_slice()));
        let _ = clip_grad_norm(&mut net, 1e6);
        let mut after = Vec::new();
        net.visit_params(&mut |p| after.extend_from_slice(p.grad.as_slice()));
        assert_eq!(before, after);
    }

    #[test]
    fn adam_moments_persist_across_steps() {
        let mut net = Linear::new(1, 1, 9);
        let mut adam = Adam::new(0.1);
        let x = Tensor::from_vec(vec![1, 1], vec![1.0]);
        let y = Tensor::from_vec(vec![1, 1], vec![5.0]);
        let mut w_after_first = 0.0;
        for step in 0..2 {
            let pred = net.forward(&x, true);
            let grad = mse_loss_grad(&pred, &y);
            net.zero_grad();
            let _ = net.backward(&grad);
            adam.step(&mut net);
            if step == 0 {
                net.visit_params(&mut |p| {
                    if p.name == "linear.weight" {
                        w_after_first = p.value.as_slice()[0];
                    }
                });
            }
        }
        let mut w_after_second = 0.0;
        net.visit_params(&mut |p| {
            if p.name == "linear.weight" {
                w_after_second = p.value.as_slice()[0];
            }
        });
        assert_ne!(w_after_first, w_after_second);
        assert_eq!(adam.t, 2);
    }
}
