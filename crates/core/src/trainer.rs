//! Training loop for the printability predictor (paper Section IV-C:
//! Adam + MAE on z-scored Eq. 9 labels).

use crate::dataset::Dataset;
use crate::predictor::PrintabilityPredictor;
use ldmo_nn::layers::Layer;
use ldmo_nn::loss::{mae_loss, mae_loss_grad};
use ldmo_nn::optim::{clip_grad_norm, Adam, LrSchedule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (decayed by `lr_decay` every `lr_step` epochs).
    pub lr: f32,
    /// Epochs between learning-rate decays (`usize::MAX` disables decay).
    pub lr_step: usize,
    /// Learning-rate decay factor.
    pub lr_decay: f32,
    /// Global gradient-norm clip (`f32::INFINITY` disables clipping).
    pub grad_clip: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 8,
            lr: 1e-3,
            lr_step: 15,
            lr_decay: 0.3,
            grad_clip: 5.0,
            seed: 0,
        }
    }
}

/// Per-epoch loss history.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct TrainHistory {
    /// Mean training MAE of each epoch.
    pub epoch_mae: Vec<f32>,
    /// Wall-clock time of each epoch (same length as `epoch_mae`).
    pub epoch_wall: Vec<Duration>,
}

impl TrainHistory {
    /// Final epoch's MAE (`None` before training).
    pub fn final_mae(&self) -> Option<f32> {
        self.epoch_mae.last().copied()
    }
}

/// Trains `predictor` on `dataset`, returning the loss history.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train(
    predictor: &mut PrintabilityPredictor,
    dataset: &Dataset,
    cfg: &TrainConfig,
) -> TrainHistory {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    let input_size = predictor.network_mut().config().input_size;
    let mut adam = Adam::new(cfg.lr);
    let schedule = LrSchedule {
        base_lr: cfg.lr,
        step_epochs: cfg.lr_step,
        gamma: cfg.lr_decay,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    let mut history = TrainHistory::default();
    let mut run_span = ldmo_obs::span("train.run");
    run_span.set("epochs", cfg.epochs as f64);
    run_span.set("examples", dataset.len() as f64);
    run_span.set("pool", ldmo_par::global_threads() as f64);
    for epoch in 0..cfg.epochs {
        let mut span = ldmo_obs::span("train.epoch");
        let epoch_start = Instant::now();
        adam.lr = schedule.lr_at(epoch);
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let (x, y) = dataset.batch(chunk, input_size);
            let net = predictor.network_mut();
            let pred = net.forward(&x, true);
            let loss = mae_loss(&pred, &y);
            let grad = mae_loss_grad(&pred, &y);
            net.zero_grad();
            let _ = net.backward(&grad);
            if cfg.grad_clip.is_finite() {
                let _ = clip_grad_norm(net, cfg.grad_clip);
            }
            adam.step(net);
            epoch_loss += f64::from(loss);
            batches += 1;
        }
        let mae = (epoch_loss / batches as f64) as f32;
        history.epoch_mae.push(mae);
        history.epoch_wall.push(epoch_start.elapsed());
        span.set("epoch", epoch as f64);
        span.set("mae", f64::from(mae));
        span.set("lr", f64::from(adam.lr));
        span.set("batches", batches as f64);
        // numeric-health guard: once the epoch loss goes non-finite the
        // weights are poisoned and further epochs cannot recover — stop
        // here so the caller keeps the history up to the blow-up
        if !mae.is_finite() {
            ldmo_obs::incr("guard.train_nonfinite");
            break;
        }
    }
    if let Some(mae) = history.final_mae() {
        run_span.set("final_mae", f64::from(mae));
    }
    history
}

/// Mean absolute error of the predictor on a dataset (eval mode).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn evaluate_mae(predictor: &mut PrintabilityPredictor, dataset: &Dataset) -> f32 {
    assert!(!dataset.is_empty(), "cannot evaluate on an empty dataset");
    let input_size = predictor.network_mut().config().input_size;
    // batch like the training loop: one forward per chunk instead of per
    // sample (eval-mode conv and batch-norm are per-sample independent, so
    // the per-sample errors are unchanged)
    let indices: Vec<usize> = (0..dataset.len()).collect();
    let mut total = 0.0f64;
    for chunk in indices.chunks(EVAL_BATCH) {
        let (x, _) = dataset.batch(chunk, input_size);
        let pred = predictor.network_mut().forward(&x, false);
        for (k, &i) in chunk.iter().enumerate() {
            total += f64::from((pred.as_slice()[k] - dataset.labels[i]).abs());
        }
    }
    (total / dataset.len() as f64) as f32
}

/// Evaluation mini-batch size (amortizes per-forward overhead and lets the
/// conv layers fan samples across the pool).
const EVAL_BATCH: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Normalizer;
    use ldmo_geom::{Grid, Rect};
    use ldmo_layout::MaskAssignment;

    /// A synthetic dataset where the label is a simple function of the
    /// image (bright area fraction), bypassing the expensive ILT labeling.
    fn synthetic_dataset(n: usize) -> Dataset {
        let mut images = Vec::new();
        let mut raw = Vec::new();
        let mut provenance: Vec<(usize, MaskAssignment)> = Vec::new();
        for i in 0..n {
            let mut img = Grid::zeros(224, 224);
            let size = 40 + (i as i32 * 13) % 120;
            img.fill_rect(&Rect::new(20, 20, 20 + size, 20 + size), 1.0);
            raw.push(f64::from(size));
            images.push(img);
            provenance.push((i, vec![0]));
        }
        let normalizer = Normalizer::fit(&raw);
        let labels = raw.iter().map(|&s| normalizer.apply(s) as f32).collect();
        Dataset {
            images,
            raw_scores: raw,
            labels,
            normalizer,
            provenance,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = synthetic_dataset(8);
        let mut predictor = PrintabilityPredictor::lite(5);
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 4,
            lr: 2e-3,
            seed: 1,
            ..TrainConfig::default()
        };
        let history = train(&mut predictor, &ds, &cfg);
        assert_eq!(history.epoch_mae.len(), 12);
        let first = history.epoch_mae[0];
        let last = history.final_mae().expect("trained");
        assert!(last < first * 0.8, "MAE did not improve: {first} -> {last}");
    }

    #[test]
    fn evaluation_improves_after_training() {
        let ds = synthetic_dataset(8);
        let mut predictor = PrintabilityPredictor::lite(7);
        let before = evaluate_mae(&mut predictor, &ds);
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 4,
            lr: 2e-3,
            seed: 2,
            ..TrainConfig::default()
        };
        let _ = train(&mut predictor, &ds, &cfg);
        let after = evaluate_mae(&mut predictor, &ds);
        assert!(after < before, "eval MAE {before} -> {after}");
    }

    #[test]
    fn training_is_deterministic() {
        let ds = synthetic_dataset(6);
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let mut p1 = PrintabilityPredictor::lite(9);
        let mut p2 = PrintabilityPredictor::lite(9);
        let h1 = train(&mut p1, &ds, &cfg);
        let h2 = train(&mut p2, &ds, &cfg);
        // Wall times differ between runs; the losses must not.
        assert_eq!(h1.epoch_mae, h2.epoch_mae);
    }

    #[test]
    fn nonfinite_epoch_loss_stops_training_early() {
        // an infinite learning rate blows the weights up within an epoch;
        // the guard must stop the loop instead of burning the remaining
        // epochs on NaN forward passes
        let ds = synthetic_dataset(6);
        let mut predictor = PrintabilityPredictor::lite(11);
        let cfg = TrainConfig {
            epochs: 8,
            lr: f32::INFINITY,
            grad_clip: f32::INFINITY,
            ..TrainConfig::default()
        };
        let history = train(&mut predictor, &ds, &cfg);
        assert!(history.epoch_mae.len() < 8, "guard did not stop training");
        let last = history.final_mae().expect("at least one epoch ran");
        assert!(!last.is_finite(), "stopped without a non-finite epoch");
    }
}
