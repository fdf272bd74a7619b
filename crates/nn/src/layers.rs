//! Neural-network layers with hand-written forward and backward passes.
//!
//! All layers follow the same contract: `forward` caches whatever the
//! gradient needs, `backward` consumes the cache and returns the gradient
//! with respect to the layer input. [`Sequential`] and
//! [`BasicBlock`] compose layers into the ResNet topology of the paper's
//! Fig. 5.

use crate::Tensor;

/// A trainable parameter: value and accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub value: Tensor,
    /// Accumulated gradient, same shape as `value`.
    pub grad: Tensor,
    /// Diagnostic name (e.g. `"conv.weight"`).
    pub name: String,
}

impl Param {
    fn new(value: Tensor, name: &str) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Param {
            value,
            grad,
            name: name.to_owned(),
        }
    }
}

/// A differentiable layer.
pub trait Layer {
    /// Computes the output; `train` toggles training-time behaviour
    /// (batch statistics in [`BatchNorm2d`]).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out` (the loss gradient w.r.t. the forward
    /// output) and returns the gradient w.r.t. the forward input.
    /// Parameter gradients are *accumulated* into each [`Param::grad`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every trainable parameter (used by optimizers and
    /// serialization).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every non-trainable state buffer (batch-norm running
    /// statistics), for serialization. Buffers are visited in a stable
    /// order matching the layer structure.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}

    /// Clears all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.0));
    }
}

/// `out[m×n] += a[m×k] · b[k×n]` (row-major), the single GEMM primitive
/// behind convolution and linear layers.
pub(crate) fn matmul_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out[m×n] += aᵀ[k×m]ᵀ · b[k×n]`, i.e. `a` is stored transposed (k-major).
pub(crate) fn matmul_at_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution (square kernel) via im2col + GEMM.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Param,
    bias: Option<Param>,
    cache: Option<ConvCache>,
}

#[derive(Debug, Clone)]
struct ConvCache {
    input_shape: [usize; 4],
    cols: Vec<Vec<f32>>, // per-batch im2col matrices [C·k·k × OH·OW]
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        seed: u64,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(
            Tensor::randn_he(
                vec![out_channels, in_channels, kernel, kernel],
                fan_in,
                seed,
            ),
            "conv.weight",
        );
        let bias = bias.then(|| Param::new(Tensor::zeros(vec![out_channels]), "conv.bias"));
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            bias,
            cache: None,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.padding - self.kernel) / self.stride + 1,
            (w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }

    fn im2col(&self, x: &Tensor, n: usize, oh: usize, ow: usize) -> Vec<f32> {
        let [_, c, h, w] = x.dims4();
        let k = self.kernel;
        let mut col = vec![0.0f32; c * k * k * oh * ow];
        let xs = x.as_slice();
        let base = n * c * h * w;
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ci * k + ky) * k + kx) * oh * ow;
                    for oy in 0..oh {
                        let iy = (oy * self.stride + ky) as i64 - self.padding as i64;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let src = base + (ci * h + iy as usize) * w;
                        for ox in 0..ow {
                            let ix = (ox * self.stride + kx) as i64 - self.padding as i64;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            col[row + oy * ow + ox] = xs[src + ix as usize];
                        }
                    }
                }
            }
        }
        col
    }

    fn col2im(&self, col: &[f32], shape: [usize; 4], oh: usize, ow: usize) -> Vec<f32> {
        let [_, c, h, w] = shape;
        let k = self.kernel;
        let mut img = vec![0.0f32; c * h * w];
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ci * k + ky) * k + kx) * oh * ow;
                    for oy in 0..oh {
                        let iy = (oy * self.stride + ky) as i64 - self.padding as i64;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let dst = (ci * h + iy as usize) * w;
                        for ox in 0..ow {
                            let ix = (ox * self.stride + kx) as i64 - self.padding as i64;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            img[dst + ix as usize] += col[row + oy * ow + ox];
                        }
                    }
                }
            }
        }
        img
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let [n, c, h, w] = x.dims4();
        assert_eq!(c, self.in_channels, "input channel mismatch");
        let (oh, ow) = self.output_hw(h, w);
        let mut out = Tensor::zeros(vec![n, self.out_channels, oh, ow]);
        let k2 = self.in_channels * self.kernel * self.kernel;
        let pool = ldmo_par::global();
        let ohw = self.out_channels * oh * ow;
        // samples are independent and write disjoint output slices:
        // compute each slab on the pool, copy back in index order
        let samples: Vec<usize> = (0..n).collect();
        let slabs = pool.par_map(&samples, |&ni| {
            let col = self.im2col(x, ni, oh, ow);
            let mut slab = vec![0.0f32; ohw];
            matmul_acc(
                self.weight.value.as_slice(),
                &col,
                self.out_channels,
                k2,
                oh * ow,
                &mut slab,
            );
            if let Some(b) = &self.bias {
                for oc in 0..self.out_channels {
                    let bv = b.value.as_slice()[oc];
                    for v in &mut slab[oc * oh * ow..(oc + 1) * oh * ow] {
                        *v += bv;
                    }
                }
            }
            (col, slab)
        });
        let os = out.as_mut_slice();
        let mut cols = Vec::with_capacity(n);
        for (ni, (col, slab)) in slabs.into_iter().enumerate() {
            os[ni * ohw..(ni + 1) * ohw].copy_from_slice(&slab);
            cols.push(col);
        }
        self.cache = Some(ConvCache {
            input_shape: [n, c, h, w],
            cols,
            out_hw: (oh, ow),
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("forward before backward");
        let [n, c, h, w] = cache.input_shape;
        let (oh, ow) = cache.out_hw;
        let k2 = self.in_channels * self.kernel * self.kernel;
        let mut dx = Tensor::zeros(vec![n, c, h, w]);
        let pool = ldmo_par::global();
        // per-sample partials are written by ASSIGNMENT inside the
        // workers, then reduced here in ascending sample order: the
        // element-wise addition sequence does not depend on which worker
        // computed which partial, so gradients are bit-identical for any
        // thread count (one thread is the pool's plain serial fold)
        let samples: Vec<usize> = (0..n).collect();
        let parts = pool.par_map(&samples, |&ni| {
            let go = &grad_out.as_slice()[ni * self.out_channels * oh * ow..]
                [..self.out_channels * oh * ow];
            let col = &cache.cols[ni];
            let mut dwp = vec![0.0f32; self.out_channels * k2];
            for oc in 0..self.out_channels {
                let gorow = &go[oc * oh * ow..(oc + 1) * oh * ow];
                let dwrow = &mut dwp[oc * k2..(oc + 1) * k2];
                for p in 0..k2 {
                    let colrow = &col[p * oh * ow..(p + 1) * oh * ow];
                    let mut acc = 0.0f32;
                    for (g, cv) in gorow.iter().zip(colrow) {
                        acc += g * cv;
                    }
                    dwrow[p] = acc;
                }
            }
            let dbp = self.bias.is_some().then(|| {
                (0..self.out_channels)
                    .map(|oc| go[oc * oh * ow..(oc + 1) * oh * ow].iter().sum::<f32>())
                    .collect::<Vec<f32>>()
            });
            let mut dcol = vec![0.0f32; k2 * oh * ow];
            matmul_at_acc(
                self.weight.value.as_slice(),
                go,
                k2,
                self.out_channels,
                oh * ow,
                &mut dcol,
            );
            let img = self.col2im(&dcol, cache.input_shape, oh, ow);
            (dwp, dbp, img)
        });
        let dw = self.weight.grad.as_mut_slice();
        for (dwp, _, _) in &parts {
            for (d, &p) in dw.iter_mut().zip(dwp) {
                *d += p;
            }
        }
        if let Some(b) = &mut self.bias {
            let db = b.grad.as_mut_slice();
            for (_, dbp, _) in &parts {
                let dbp = dbp.as_ref().expect("bias partial present");
                for (d, &p) in db.iter_mut().zip(dbp) {
                    *d += p;
                }
            }
        }
        let dxs = dx.as_mut_slice();
        for (ni, (_, _, img)) in parts.into_iter().enumerate() {
            dxs[ni * c * h * w..(ni + 1) * c * h * w].copy_from_slice(&img);
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

/// Per-channel batch normalization with affine parameters and running
/// statistics (momentum 0.1, eps 1e-5), matching the paper's ResNet blocks.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    shape: [usize; 4],
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            gamma: Param::new(Tensor::filled(vec![channels], 1.0), "bn.gamma"),
            beta: Param::new(Tensor::zeros(vec![channels]), "bn.beta"),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Read access to the running mean (for serialization).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Read access to the running variance (for serialization).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w] = x.dims4();
        assert_eq!(c, self.channels, "channel mismatch");
        let spatial = h * w;
        let count = (n * spatial) as f32;
        let xs = x.as_slice();
        let mut out = Tensor::zeros(vec![n, c, h, w]);
        let mut x_hat = Tensor::zeros(vec![n, c, h, w]);
        let mut inv_stds = vec![0.0f32; c];
        for (ci, inv_std_slot) in inv_stds.iter_mut().enumerate() {
            let (mean, var) = if train {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * spatial;
                    for &v in &xs[base..base + spatial] {
                        sum += f64::from(v);
                        sq += f64::from(v) * f64::from(v);
                    }
                }
                let mean = (sum / f64::from(count)) as f32;
                let var = ((sq / f64::from(count)) - f64::from(mean) * f64::from(mean)) as f32;
                let var = var.max(0.0);
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ci], self.running_var[ci])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            *inv_std_slot = inv_std;
            let g = self.gamma.value.as_slice()[ci];
            let b = self.beta.value.as_slice()[ci];
            for ni in 0..n {
                let base = (ni * c + ci) * spatial;
                let xh_out = &mut x_hat.as_mut_slice()[base..base + spatial];
                let y_out = &mut out.as_mut_slice()[base..base + spatial];
                for ((xh_v, y_v), &xv) in xh_out
                    .iter_mut()
                    .zip(y_out.iter_mut())
                    .zip(&xs[base..base + spatial])
                {
                    let xh = (xv - mean) * inv_std;
                    *xh_v = xh;
                    *y_v = g * xh + b;
                }
            }
        }
        self.cache = Some(BnCache {
            x_hat,
            inv_std: inv_stds,
            shape: [n, c, h, w],
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("forward before backward");
        let [n, c, h, w] = cache.shape;
        let spatial = h * w;
        let m = (n * spatial) as f32;
        let go = grad_out.as_slice();
        let xh = cache.x_hat.as_slice();
        let mut dx = Tensor::zeros(vec![n, c, h, w]);
        for ci in 0..c {
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ci) * spatial;
                for i in base..base + spatial {
                    sum_dy += f64::from(go[i]);
                    sum_dy_xhat += f64::from(go[i]) * f64::from(xh[i]);
                }
            }
            self.beta.grad.as_mut_slice()[ci] += sum_dy as f32;
            self.gamma.grad.as_mut_slice()[ci] += sum_dy_xhat as f32;
            let g = self.gamma.value.as_slice()[ci];
            let inv_std = cache.inv_std[ci];
            let k1 = (sum_dy / f64::from(m)) as f32;
            let k2 = (sum_dy_xhat / f64::from(m)) as f32;
            for ni in 0..n {
                let base = (ni * c + ci) * spatial;
                for i in base..base + spatial {
                    dx.as_mut_slice()[i] = g * inv_std * (go[i] - k1 - xh[i] * k2);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("forward before backward");
        let mut g = grad_out.clone();
        for (v, keep) in g.as_mut_slice().iter_mut().zip(mask) {
            if !keep {
                *v = 0.0;
            }
        }
        g
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// Backward cache of [`MaxPool2d`]: argmax indices, input shape, output
/// spatial dims.
type PoolCache = (Vec<usize>, [usize; 4], (usize, usize));

/// Max pooling with square window.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    padding: usize,
    cache: Option<PoolCache>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            padding,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let [n, c, h, w] = x.dims4();
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        let xs = x.as_slice();
        let mut out = Tensor::zeros(vec![n, c, oh, ow]);
        let mut argmax = vec![0usize; n * c * oh * ow];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = base;
                        for ky in 0..self.kernel {
                            let iy = (oy * self.stride + ky) as i64 - self.padding as i64;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..self.kernel {
                                let ix = (ox * self.stride + kx) as i64 - self.padding as i64;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let idx = base + iy as usize * w + ix as usize;
                                if xs[idx] > best {
                                    best = xs[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = ((ni * c + ci) * oh + oy) * ow + ox;
                        out.as_mut_slice()[oidx] = best;
                        argmax[oidx] = best_idx;
                    }
                }
            }
        }
        self.cache = Some((argmax, [n, c, h, w], (oh, ow)));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, shape, _) = self.cache.take().expect("forward before backward");
        let mut dx = Tensor::zeros(shape.to_vec());
        let d = dx.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&argmax) {
            d[idx] += g;
        }
        dx
    }
}

// ---------------------------------------------------------------------------
// Global average pooling
// ---------------------------------------------------------------------------

/// Global average pooling `[N, C, H, W] → [N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cache: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let [n, c, h, w] = x.dims4();
        self.cache = Some([n, c, h, w]);
        let spatial = (h * w) as f32;
        let xs = x.as_slice();
        let mut out = Tensor::zeros(vec![n, c]);
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                out.as_mut_slice()[ni * c + ci] =
                    xs[base..base + h * w].iter().sum::<f32>() / spatial;
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self.cache.take().expect("forward before backward");
        let scale = 1.0 / (h * w) as f32;
        let mut dx = Tensor::zeros(vec![n, c, h, w]);
        for ni in 0..n {
            for ci in 0..c {
                let g = grad_out.as_slice()[ni * c + ci] * scale;
                let base = (ni * c + ci) * h * w;
                for v in &mut dx.as_mut_slice()[base..base + h * w] {
                    *v = g;
                }
            }
        }
        dx
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully connected layer `[N, in] → [N, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with He-initialized weights.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Linear {
            in_features,
            out_features,
            weight: Param::new(
                Tensor::randn_he(vec![out_features, in_features], in_features, seed),
                "linear.weight",
            ),
            bias: Param::new(Tensor::zeros(vec![out_features]), "linear.bias"),
            cache: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "linear expects [N, in]");
        let n = x.shape()[0];
        assert_eq!(x.shape()[1], self.in_features, "feature mismatch");
        let mut out = Tensor::zeros(vec![n, self.out_features]);
        // out[n, o] = x[n, i] · W[o, i]ᵀ + b
        let xs = x.as_slice();
        let ws = self.weight.value.as_slice();
        let bs = self.bias.value.as_slice();
        for ni in 0..n {
            let xrow = &xs[ni * self.in_features..(ni + 1) * self.in_features];
            let orow =
                &mut out.as_mut_slice()[ni * self.out_features..(ni + 1) * self.out_features];
            for (o, ov) in orow.iter_mut().enumerate() {
                let wrow = &ws[o * self.in_features..(o + 1) * self.in_features];
                let mut acc = bs[o];
                for (xv, wv) in xrow.iter().zip(wrow) {
                    acc += xv * wv;
                }
                *ov = acc;
            }
        }
        self.cache = Some(x.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.take().expect("forward before backward");
        let n = x.shape()[0];
        let xs = x.as_slice();
        let go = grad_out.as_slice();
        // dW[o, i] += Σ_n go[n, o] x[n, i];  db[o] += Σ_n go[n, o]
        {
            let dw = self.weight.grad.as_mut_slice();
            let db = self.bias.grad.as_mut_slice();
            for ni in 0..n {
                let xrow = &xs[ni * self.in_features..(ni + 1) * self.in_features];
                let grow = &go[ni * self.out_features..(ni + 1) * self.out_features];
                for (o, &g) in grow.iter().enumerate() {
                    db[o] += g;
                    if g == 0.0 {
                        continue;
                    }
                    let dwrow = &mut dw[o * self.in_features..(o + 1) * self.in_features];
                    for (d, &xv) in dwrow.iter_mut().zip(xrow) {
                        *d += g * xv;
                    }
                }
            }
        }
        // dx[n, i] = Σ_o go[n, o] W[o, i]
        let ws = self.weight.value.as_slice();
        let mut dx = Tensor::zeros(vec![n, self.in_features]);
        for ni in 0..n {
            let grow = &go[ni * self.out_features..(ni + 1) * self.out_features];
            let drow = &mut dx.as_mut_slice()[ni * self.in_features..(ni + 1) * self.in_features];
            for (o, &g) in grow.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let wrow = &ws[o * self.in_features..(o + 1) * self.in_features];
                for (d, &wv) in drow.iter_mut().zip(wrow) {
                    *d += g * wv;
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

/// A chain of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }
}

// ---------------------------------------------------------------------------
// BasicBlock (ResNet18 residual block)
// ---------------------------------------------------------------------------

/// The ResNet18 basic residual block: two 3×3 conv+BN stages with an
/// identity (or 1×1-conv downsample) skip connection, exactly the structure
/// in the paper's Fig. 5 ("identity mapping is added between two 3×3
/// conventional layers").
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    downsample: Option<(Conv2d, BatchNorm2d)>,
    relu_out_mask: Option<Vec<bool>>,
}

impl BasicBlock {
    /// Creates a block mapping `in_channels → out_channels` at `stride`.
    /// A 1×1 downsample projection is added automatically when the shape
    /// changes.
    pub fn new(in_channels: usize, out_channels: usize, stride: usize, seed: u64) -> Self {
        let downsample = (stride != 1 || in_channels != out_channels).then(|| {
            (
                Conv2d::new(in_channels, out_channels, 1, stride, 0, false, seed ^ 0xD5),
                BatchNorm2d::new(out_channels),
            )
        });
        BasicBlock {
            conv1: Conv2d::new(in_channels, out_channels, 3, stride, 1, false, seed),
            bn1: BatchNorm2d::new(out_channels),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_channels, out_channels, 3, 1, 1, false, seed ^ 0xA7),
            bn2: BatchNorm2d::new(out_channels),
            downsample,
            relu_out_mask: None,
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let main = self.conv1.forward(x, train);
        let main = self.bn1.forward(&main, train);
        let main = self.relu1.forward(&main, train);
        let main = self.conv2.forward(&main, train);
        let main = self.bn2.forward(&main, train);
        let skip = match &mut self.downsample {
            Some((conv, bn)) => {
                let s = conv.forward(x, train);
                bn.forward(&s, train)
            }
            None => x.clone(),
        };
        let mut out = Tensor::zeros(main.shape().to_vec());
        let mut mask = vec![false; out.len()];
        {
            let o = out.as_mut_slice();
            let ms = main.as_slice();
            let ss = skip.as_slice();
            for i in 0..o.len() {
                let v = ms[i] + ss[i];
                mask[i] = v > 0.0;
                o[i] = v.max(0.0);
            }
        }
        self.relu_out_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.relu_out_mask.take().expect("forward before backward");
        let mut g = grad_out.clone();
        for (v, keep) in g.as_mut_slice().iter_mut().zip(mask) {
            if !keep {
                *v = 0.0;
            }
        }
        // main path
        let d = self.bn2.backward(&g);
        let d = self.conv2.backward(&d);
        let d = self.relu1.backward(&d);
        let d = self.bn1.backward(&d);
        let mut dx = self.conv1.backward(&d);
        // skip path
        let dskip = match &mut self.downsample {
            Some((conv, bn)) => {
                let d = bn.backward(&g);
                conv.backward(&d)
            }
            None => g,
        };
        for (a, &b) in dx.as_mut_slice().iter_mut().zip(dskip.as_slice()) {
            *a += b;
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &mut self.downsample {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.bn1.visit_buffers(f);
        self.bn2.visit_buffers(f);
        if let Some((_, bn)) = &mut self.downsample {
            bn.visit_buffers(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generic finite-difference check of a layer's input gradient.
    fn check_input_gradient<L: Layer>(layer: &mut L, x: &Tensor, probes: &[usize]) {
        // scalar loss: sum of outputs
        let out = layer.forward(x, true);
        let ones = Tensor::filled(out.shape().to_vec(), 1.0);
        let dx = layer.backward(&ones);
        let eps = 1e-2f32;
        for &i in probes {
            let mut xa = x.clone();
            xa.as_mut_slice()[i] += eps;
            let la: f64 = layer
                .forward(&xa, true)
                .as_slice()
                .iter()
                .map(|&v| f64::from(v))
                .sum();
            // cached state from the probe forward must not leak: run a
            // throwaway backward to clear it
            let _ = layer.backward(&ones);
            let mut xb = x.clone();
            xb.as_mut_slice()[i] -= eps;
            let lb: f64 = layer
                .forward(&xb, true)
                .as_slice()
                .iter()
                .map(|&v| f64::from(v))
                .sum();
            let _ = layer.backward(&ones);
            let numeric = ((la - lb) / (2.0 * f64::from(eps))) as f32;
            let analytic = dx.as_slice()[i];
            let denom = numeric.abs().max(analytic.abs()).max(0.1);
            assert!(
                (numeric - analytic).abs() / denom < 0.12,
                "input grad at {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    fn test_input(shape: Vec<usize>, seed: u64) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec(shape, Tensor::randn_he(vec![n], 2, seed).into_vec())
    }

    #[test]
    fn conv_identity_kernel_preserves_input() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, false, 0);
        conv.visit_params(&mut |p| {
            if p.name == "conv.weight" {
                p.value.as_mut_slice()[0] = 1.0;
            }
        });
        let x = test_input(vec![1, 1, 4, 4], 3);
        let y = conv.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_shapes_with_stride_and_padding() {
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, true, 1);
        let x = test_input(vec![2, 2, 8, 8], 5);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn conv_input_gradient_matches_fd() {
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, true, 11);
        let x = test_input(vec![1, 2, 5, 5], 7);
        check_input_gradient(&mut conv, &x, &[0, 7, 24, 33, 49]);
    }

    #[test]
    fn conv_weight_gradient_matches_fd() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false, 13);
        let x = test_input(vec![1, 1, 5, 5], 17);
        let out = conv.forward(&x, true);
        let ones = Tensor::filled(out.shape().to_vec(), 1.0);
        conv.zero_grad();
        let _ = conv.backward(&ones);
        let mut analytic = Vec::new();
        conv.visit_params(&mut |p| analytic = p.grad.as_slice().to_vec());
        let eps = 1e-2f32;
        for (wi, &a_wi) in analytic.iter().enumerate() {
            let mut plus = 0.0f64;
            let mut minus = 0.0f64;
            for (sign, acc) in [(eps, &mut plus), (-eps, &mut minus)] {
                conv.visit_params(&mut |p| p.value.as_mut_slice()[wi] += sign);
                *acc = conv
                    .forward(&x, true)
                    .as_slice()
                    .iter()
                    .map(|&v| f64::from(v))
                    .sum();
                let _ = conv.backward(&ones);
                conv.visit_params(&mut |p| p.value.as_mut_slice()[wi] -= sign);
            }
            let numeric = ((plus - minus) / (2.0 * f64::from(eps))) as f32;
            let denom = numeric.abs().max(a_wi.abs()).max(0.1);
            assert!(
                (numeric - a_wi).abs() / denom < 0.08,
                "weight grad {wi}: numeric {numeric} vs analytic {a_wi}"
            );
        }
    }

    #[test]
    fn batchnorm_normalizes_in_train_mode() {
        let mut bn = BatchNorm2d::new(2);
        let x = test_input(vec![4, 2, 3, 3], 23);
        let y = bn.forward(&x, true);
        // each channel of the output has ~zero mean, ~unit variance
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                for h in 0..3 {
                    for w in 0..3 {
                        vals.push(y.at4(ni, ci, h, w));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::filled(vec![2, 1, 2, 2], 3.0);
        // no training yet: running stats are (0, 1), so eval output = x
        let y = bn.forward(&x, false);
        assert!((y.as_slice()[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_input_gradient_matches_fd() {
        let mut bn = BatchNorm2d::new(2);
        let x = test_input(vec![2, 2, 3, 3], 31);
        // use a non-uniform loss weighting so the gradient is non-trivial
        let out = bn.forward(&x, true);
        let weights: Vec<f32> = (0..out.len()).map(|i| ((i % 5) as f32) - 2.0).collect();
        let w_t = Tensor::from_vec(out.shape().to_vec(), weights.clone());
        let dx = bn.backward(&w_t);
        let eps = 1e-2f32;
        for &i in &[0usize, 5, 17, 35] {
            let mut xa = x.clone();
            xa.as_mut_slice()[i] += eps;
            let la: f64 = bn
                .forward(&xa, true)
                .as_slice()
                .iter()
                .zip(&weights)
                .map(|(&v, &wt)| f64::from(v) * f64::from(wt))
                .sum();
            let _ = bn.backward(&w_t);
            let mut xb = x.clone();
            xb.as_mut_slice()[i] -= eps;
            let lb: f64 = bn
                .forward(&xb, true)
                .as_slice()
                .iter()
                .zip(&weights)
                .map(|(&v, &wt)| f64::from(v) * f64::from(wt))
                .sum();
            let _ = bn.backward(&w_t);
            let numeric = ((la - lb) / (2.0 * f64::from(eps))) as f32;
            let analytic = dx.as_slice()[i];
            let denom = numeric.abs().max(analytic.abs()).max(0.1);
            assert!(
                (numeric - analytic).abs() / denom < 0.12,
                "bn grad at {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let g = relu.backward(&Tensor::filled(vec![1, 4], 1.0));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let mut pool = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(
            vec![1, 1, 2, 4],
            vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 6.0],
        );
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.as_slice(), &[5.0, 6.0]);
        let g = pool.backward(&Tensor::from_vec(vec![1, 1, 1, 2], vec![10.0, 20.0]));
        assert_eq!(g.as_slice(), &[0.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20.0]);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let g = pool.backward(&Tensor::from_vec(vec![1, 2], vec![4.0, 8.0]));
        assert_eq!(g.as_slice()[0], 1.0); // 4 / 4
        assert_eq!(g.as_slice()[4], 2.0); // 8 / 4
    }

    #[test]
    fn linear_input_gradient_matches_fd() {
        let mut lin = Linear::new(6, 3, 41);
        let x = test_input(vec![2, 6], 43);
        check_input_gradient(&mut lin, &x, &[0, 3, 7, 11]);
    }

    #[test]
    fn sequential_composes() {
        let mut net = Sequential::new()
            .with(Linear::new(4, 8, 1))
            .with(Relu::new())
            .with(Linear::new(8, 2, 2));
        let x = test_input(vec![3, 4], 47);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[3, 2]);
        let dx = net.backward(&Tensor::filled(vec![3, 2], 1.0));
        assert_eq!(dx.shape(), &[3, 4]);
        let mut count = 0;
        net.visit_params(&mut |_| count += 1);
        assert_eq!(count, 4); // two linears × (weight + bias)
    }

    #[test]
    fn basic_block_identity_shape() {
        let mut block = BasicBlock::new(4, 4, 1, 53);
        let x = test_input(vec![2, 4, 6, 6], 59);
        let y = block.forward(&x, true);
        assert_eq!(y.shape(), x.shape());
        let dx = block.backward(&Tensor::filled(y.shape().to_vec(), 1.0));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn basic_block_downsample_shape() {
        let mut block = BasicBlock::new(4, 8, 2, 61);
        let x = test_input(vec![1, 4, 8, 8], 67);
        let y = block.forward(&x, true);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        // downsample adds a conv + bn: 2 + 2 + 2 + 2·(bn gamma/beta) params
        let mut names = Vec::new();
        block.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names.iter().filter(|n| *n == "conv.weight").count(), 3);
    }

    #[test]
    fn basic_block_input_gradient_matches_fd() {
        let mut block = BasicBlock::new(2, 2, 1, 71);
        let x = test_input(vec![1, 2, 4, 4], 73);
        check_input_gradient(&mut block, &x, &[0, 9, 21, 31]);
    }

    #[test]
    fn conv_strided_input_gradient_matches_fd() {
        // stride-2 convolutions (the ResNet downsampling path) exercise the
        // col2im scatter differently from stride 1
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, false, 19);
        let x = test_input(vec![1, 2, 6, 6], 23);
        check_input_gradient(&mut conv, &x, &[0, 13, 35, 70]);
    }

    #[test]
    fn maxpool_padded_gradient_matches_fd() {
        let mut pool = MaxPool2d::new(3, 2, 1);
        // Distinct values with gaps (0.25) far above the FD step (1e-2):
        // a random input can leave a window's runner-up within eps of its
        // max, and the ±eps probe then crosses the max kink, producing a
        // spurious fractional numeric gradient where the analytic one is 0.
        let vals: Vec<f32> = (0..36)
            .map(|i| ((i * 17) % 36) as f32 * 0.25 - 4.0)
            .collect();
        let x = Tensor::from_vec(vec![1, 1, 6, 6], vals);
        check_input_gradient(&mut pool, &x, &[0, 7, 21, 35]);
    }

    #[test]
    fn global_avg_pool_gradient_matches_fd() {
        let mut pool = GlobalAvgPool::new();
        let x = test_input(vec![2, 3, 4, 4], 37);
        check_input_gradient(&mut pool, &x, &[0, 17, 40, 95]);
    }

    #[test]
    fn deep_sequential_gradient_matches_fd() {
        // a conv→bn→relu→pool→linear stack: the full composition must
        // still match finite differences end to end
        let mut net = Sequential::new()
            .with(Conv2d::new(1, 2, 3, 1, 1, false, 43))
            .with(BatchNorm2d::new(2))
            .with(Relu::new())
            .with(GlobalAvgPool::new())
            .with(Linear::new(2, 1, 47));
        let x = test_input(vec![1, 1, 5, 5], 53);
        check_input_gradient(&mut net, &x, &[0, 6, 12, 24]);
    }

    #[test]
    fn batchnorm_eval_consistent_after_training_passes() {
        // after several train-mode passes the running stats approximate the
        // data statistics, so eval output should roughly normalize the data
        let mut bn = BatchNorm2d::new(1);
        let x = test_input(vec![8, 1, 4, 4], 59).map(|v| v * 3.0 + 1.0);
        for _ in 0..60 {
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&x, false);
        let mean = y.mean();
        assert!(mean.abs() < 0.2, "eval mean {mean}");
    }

    #[test]
    fn zero_grad_clears() {
        let mut lin = Linear::new(3, 2, 79);
        let x = test_input(vec![1, 3], 83);
        let y = lin.forward(&x, true);
        let _ = lin.backward(&Tensor::filled(y.shape().to_vec(), 1.0));
        let mut any_nonzero = false;
        lin.visit_params(&mut |p| any_nonzero |= p.grad.as_slice().iter().any(|&v| v != 0.0));
        assert!(any_nonzero);
        lin.zero_grad();
        lin.visit_params(&mut |p| {
            assert!(p.grad.as_slice().iter().all(|&v| v == 0.0));
        });
    }
}
