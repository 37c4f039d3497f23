//! The semi-supervised generative adversarial module (Sections III-IV).
//!
//! A three-class discriminator `D` (error / correct / synthetic) is trained
//! against a generator `G` that transforms synthetic-error encodings `X_S`
//! into representations that imitate the real encodings `X_R`:
//!
//! * `L(D) = L_s + λ L_u` — masked cross-entropy on the labeled examples
//!   plus the Eq.-1 unsupervised terms (real rows pushed away from the
//!   synthetic class, generated rows pushed into it);
//! * `L(G)` — feature matching on an intermediate discriminator layer
//!   (Section IV), whose activations double as the node embeddings
//!   `H_n(X_R)` consumed by query selection.
//!
//! `SGAN` (procedure SGAN, Fig. 4) trains both players from scratch;
//! [`Sgan::update_discriminator`] is the incremental `SGAND` variant that
//! refreshes only `D` when the example set changes.

use gale_json::{json, Value};
use gale_nn::checkpoint::{
    self, adam_from_json, adam_to_json, envelope, mlp_from_json, mlp_to_json, need, need_array,
    need_f64, need_usize, open_envelope, CkptError,
};
use gale_nn::{
    feature_matching_loss, sgan_unsupervised_loss, softmax_cross_entropy, Activation, Adam,
    InferNet, Layer, Mlp, Params,
};
use gale_tensor::{Element, Matrix, Rng};
use std::path::Path;

/// Class index of synthetic examples in the discriminator output.
pub const SYNTHETIC_CLASS: usize = 2;

/// SGAN hyper-parameters.
#[derive(Debug, Clone)]
pub struct SganConfig {
    /// Discriminator hidden widths (the last entry is the embedding layer
    /// `H_n` tapped for feature matching and query selection).
    pub d_hidden: Vec<usize>,
    /// Generator hidden widths.
    pub g_hidden: Vec<usize>,
    /// Full-training epochs (the paper uses 200 to reach Nash equilibrium).
    pub epochs: usize,
    /// Incremental (SGAND) epochs per active-learning iteration.
    pub incremental_epochs: usize,
    /// Discriminator Adam learning rate.
    pub d_lr: f64,
    /// Generator Adam learning rate.
    pub g_lr: f64,
    /// Per-epoch learning-rate decay ("reduce learning rate β", Fig. 4).
    pub lr_decay: f64,
    /// Dropout probability inside both players.
    pub dropout: f64,
    /// Weight λ of the unsupervised loss in `L(D)`.
    pub lambda_unsup: f64,
    /// Unsupervised mini-batch size over `X_R` rows per epoch.
    pub batch_unsup: usize,
    /// Early stopping: quit after this many epochs without validation
    /// improvement (the paper uses 20). `0` disables early stopping.
    pub early_stop_patience: usize,
    /// Weight of the synthetic-as-error supervised term: graph augmentation
    /// labels the injected synthetic errors as class `error`, which is what
    /// lets GEDet/GALE detect with only a handful of real examples.
    pub syn_label_weight: f64,
    /// L2 weight decay applied to the discriminator after each step
    /// (regularizes the few-shot regime).
    pub weight_decay: f64,
    /// Learning-rate multiplier for incremental (SGAND) updates: the
    /// refresh nudges `D` toward the enriched examples without retraining,
    /// keeping most node embeddings stable across iterations (which is what
    /// makes the Section-VII memoization effective).
    pub incremental_lr_scale: f64,
}

impl Default for SganConfig {
    fn default() -> Self {
        SganConfig {
            d_hidden: vec![48, 24],
            g_hidden: vec![48],
            epochs: 200,
            incremental_epochs: 20,
            d_lr: 2e-3,
            g_lr: 2e-3,
            lr_decay: 0.995,
            dropout: 0.2,
            lambda_unsup: 0.5,
            batch_unsup: 256,
            early_stop_patience: 20,
            syn_label_weight: 0.25,
            weight_decay: 1e-4,
            incremental_lr_scale: 0.3,
        }
    }
}

/// Checkpoint `kind` tag of a serialized [`Sgan`] document.
pub const SGAN_CKPT_KIND: &str = "sgan";

fn usizes_to_json(xs: &[usize]) -> Value {
    let vals: Vec<Value> = xs.iter().map(|&n| Value::Int(n as i64)).collect();
    json!(vals)
}

fn usizes_from_json(v: &Value, key: &str) -> Result<Vec<usize>, CkptError> {
    need_array(v, key)?
        .iter()
        .map(|e| {
            e.as_u64().map(|n| n as usize).ok_or_else(|| {
                CkptError::Schema(format!("field `{key}` must hold non-negative integers"))
            })
        })
        .collect()
}

fn config_to_json(cfg: &SganConfig) -> Value {
    json!({
        "d_hidden": usizes_to_json(&cfg.d_hidden),
        "g_hidden": usizes_to_json(&cfg.g_hidden),
        "epochs": cfg.epochs,
        "incremental_epochs": cfg.incremental_epochs,
        "d_lr": cfg.d_lr,
        "g_lr": cfg.g_lr,
        "lr_decay": cfg.lr_decay,
        "dropout": cfg.dropout,
        "lambda_unsup": cfg.lambda_unsup,
        "batch_unsup": cfg.batch_unsup,
        "early_stop_patience": cfg.early_stop_patience,
        "syn_label_weight": cfg.syn_label_weight,
        "weight_decay": cfg.weight_decay,
        "incremental_lr_scale": cfg.incremental_lr_scale,
    })
}

fn config_from_json(v: &Value) -> Result<SganConfig, CkptError> {
    Ok(SganConfig {
        d_hidden: usizes_from_json(v, "d_hidden")?,
        g_hidden: usizes_from_json(v, "g_hidden")?,
        epochs: need_usize(v, "epochs")?,
        incremental_epochs: need_usize(v, "incremental_epochs")?,
        d_lr: need_f64(v, "d_lr")?,
        g_lr: need_f64(v, "g_lr")?,
        lr_decay: need_f64(v, "lr_decay")?,
        dropout: need_f64(v, "dropout")?,
        lambda_unsup: need_f64(v, "lambda_unsup")?,
        batch_unsup: need_usize(v, "batch_unsup")?,
        early_stop_patience: need_usize(v, "early_stop_patience")?,
        syn_label_weight: need_f64(v, "syn_label_weight")?,
        weight_decay: need_f64(v, "weight_decay")?,
        incremental_lr_scale: need_f64(v, "incremental_lr_scale")?,
    })
}

/// Statistics from a training run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainStats {
    /// Epochs actually executed (early stopping may cut the budget).
    pub epochs_run: usize,
    /// Final discriminator loss (supervised + λ·unsupervised).
    pub d_loss: f64,
    /// Final generator feature-matching loss.
    pub g_loss: f64,
}

/// Epoch-persistent scratch buffers: every training step writes the same
/// storage instead of reallocating its batch blocks and gradients.
struct SganScratch {
    labeled_x: Matrix,
    unsup_x: Matrix,
    syn_x: Matrix,
    fake_x: Matrix,
    combined: Matrix,
    fake_in: Matrix,
    real_x: Matrix,
    grad_h: Matrix,
    grad_fake_input: Matrix,
}

impl Default for SganScratch {
    fn default() -> Self {
        let empty = || Matrix::zeros(0, 0);
        SganScratch {
            labeled_x: empty(),
            unsup_x: empty(),
            syn_x: empty(),
            fake_x: empty(),
            combined: empty(),
            fake_in: empty(),
            real_x: empty(),
            grad_h: empty(),
            grad_fake_input: empty(),
        }
    }
}

/// The two-player model.
pub struct Sgan {
    d: Mlp,
    g: Mlp,
    d_opt: Adam,
    g_opt: Adam,
    /// Index of the tapped (embedding) layer inside `d`.
    tap: usize,
    cfg: SganConfig,
    input_dim: usize,
    scratch: SganScratch,
}

impl Sgan {
    /// Initializes both players for `input_dim`-dimensional encodings.
    pub fn new(input_dim: usize, cfg: &SganConfig, rng: &mut Rng) -> Sgan {
        assert!(!cfg.d_hidden.is_empty(), "SganConfig: d_hidden empty");
        let mut d_sizes = vec![input_dim];
        d_sizes.extend_from_slice(&cfg.d_hidden);
        d_sizes.push(3);
        let d = Mlp::dense(&d_sizes, Activation::LeakyRelu, false, cfg.dropout, rng);

        let mut g_sizes = vec![input_dim];
        g_sizes.extend_from_slice(&cfg.g_hidden);
        g_sizes.push(input_dim);
        let g = Mlp::dense(&g_sizes, Activation::LeakyRelu, true, cfg.dropout, rng);

        // Tap = output of the last hidden activation (just before the final
        // Linear). Mlp::dense appends [Linear, Act, Dropout?]* then Linear,
        // so the tap is depth-2 with dropout disabled in eval, or depth-2
        // counting the dropout layer when present. last_hidden_index()
        // resolves this uniformly.
        let tap = d.last_hidden_index();
        Sgan {
            d,
            g,
            d_opt: Adam::new(cfg.d_lr),
            g_opt: Adam::new(cfg.g_lr),
            tap,
            cfg: cfg.clone(),
            input_dim,
            scratch: SganScratch::default(),
        }
    }

    /// Encoding dimensionality this model was built for.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// One discriminator update on a composite batch. Returns `L(D)`.
    ///
    /// `unsup_rows`/`fake_rows` index into `x_r`/`x_s`; `targets` are
    /// `(x_r row, class)` pairs for the supervised term.
    fn d_step(
        &mut self,
        x_r: &Matrix,
        x_s: &Matrix,
        targets: &[(usize, usize)],
        unsup_rows: &[usize],
        fake_rows: &[usize],
        rng: &mut Rng,
    ) -> f64 {
        let _ = rng;
        // Combined input: [labeled | unsup real | synthetic-as-error | fake],
        // assembled in persistent scratch buffers.
        let labeled_rows: Vec<usize> = targets.iter().map(|&(r, _)| r).collect();
        x_r.select_rows_into(&labeled_rows, &mut self.scratch.labeled_x);
        x_r.select_rows_into(unsup_rows, &mut self.scratch.unsup_x);
        x_s.select_rows_into(fake_rows, &mut self.scratch.syn_x);
        if self.scratch.syn_x.rows() > 0 {
            let scratch = &mut self.scratch;
            self.g
                .forward_into(&scratch.syn_x, true, &mut scratch.fake_x);
        } else {
            self.scratch.fake_x.resize(0, self.input_dim);
        }
        let n_lab = labeled_rows.len();
        let n_unsup = unsup_rows.len();
        let n_syn = self.scratch.syn_x.rows();
        let n_fake = self.scratch.fake_x.rows();
        {
            let scratch = &mut self.scratch;
            scratch
                .combined
                .resize(n_lab + n_unsup + n_syn + n_fake, self.input_dim);
            let mut r0 = 0;
            for block in [
                &scratch.labeled_x,
                &scratch.unsup_x,
                &scratch.syn_x,
                &scratch.fake_x,
            ] {
                for r in 0..block.rows() {
                    scratch
                        .combined
                        .row_mut(r0 + r)
                        .copy_from_slice(block.row(r));
                }
                r0 += block.rows();
            }
        }
        let logits = self.d.forward_inplace(&self.scratch.combined, true);
        // Supervised loss on the labeled block.
        let local_targets: Vec<(usize, usize)> = targets
            .iter()
            .enumerate()
            .map(|(i, &(_, c))| (i, c))
            .collect();
        let (l_sup, grad_sup) = softmax_cross_entropy(logits, &local_targets);
        // Augmentation term: synthetic errors are supervised `error`
        // examples (weighted), the mechanism that lifts recall when real
        // error labels are scarce.
        let syn_targets: Vec<(usize, usize)> = (0..n_syn)
            .map(|i| {
                (
                    n_lab + n_unsup + i,
                    crate::label::Label::Error.class_index(),
                )
            })
            .collect();
        let (l_syn, grad_syn) = softmax_cross_entropy(logits, &syn_targets);

        // Unsupervised loss: the real blocks vs the generated block.
        let real_logits = logits.select_rows(&(0..n_lab + n_unsup).collect::<Vec<_>>());
        let fake_logits =
            logits.select_rows(&((n_lab + n_unsup + n_syn)..logits.rows()).collect::<Vec<_>>());
        let (l_unsup, grad_real, grad_fake) =
            sgan_unsupervised_loss(&real_logits, &fake_logits, SYNTHETIC_CLASS);

        // Assemble the combined gradient.
        let mut grad = grad_sup;
        let lambda = self.cfg.lambda_unsup;
        let w_syn = self.cfg.syn_label_weight;
        for r in 0..grad.rows() {
            if r < n_lab + n_unsup {
                for c in 0..grad.cols() {
                    grad[(r, c)] += lambda * grad_real[(r, c)];
                }
            } else if r >= n_lab + n_unsup + n_syn {
                let fr = r - n_lab - n_unsup - n_syn;
                for c in 0..grad.cols() {
                    grad[(r, c)] += lambda * grad_fake[(fr, c)];
                }
            } else {
                for c in 0..grad.cols() {
                    grad[(r, c)] += w_syn * grad_syn[(r, c)];
                }
            }
        }
        self.d.zero_grad();
        let _ = self.d.backward(&grad);
        self.d_opt.step(&mut self.d);
        if self.cfg.weight_decay > 0.0 {
            let shrink = 1.0 - self.cfg.weight_decay;
            self.d.visit_params(&mut |p, _| p.scale_inplace(shrink));
        }
        l_sup + w_syn * l_syn + lambda * l_unsup
    }

    /// One generator update via feature matching. Returns `L(G)`.
    fn g_step(
        &mut self,
        x_r: &Matrix,
        x_s: &Matrix,
        real_rows: &[usize],
        fake_rows: &[usize],
    ) -> f64 {
        if fake_rows.is_empty() || real_rows.is_empty() {
            return 0.0;
        }
        x_r.select_rows_into(real_rows, &mut self.scratch.real_x);
        x_s.select_rows_into(fake_rows, &mut self.scratch.fake_in);
        {
            let scratch = &mut self.scratch;
            self.g
                .forward_into(&scratch.fake_in, true, &mut scratch.fake_x);
        }
        let n_real = self.scratch.real_x.rows();
        // Forward the real and fake blocks together so both taps come from
        // identical discriminator state.
        {
            let scratch = &mut self.scratch;
            scratch
                .combined
                .resize(n_real + scratch.fake_x.rows(), self.input_dim);
            for r in 0..n_real {
                scratch
                    .combined
                    .row_mut(r)
                    .copy_from_slice(scratch.real_x.row(r));
            }
            for r in 0..scratch.fake_x.rows() {
                scratch
                    .combined
                    .row_mut(n_real + r)
                    .copy_from_slice(scratch.fake_x.row(r));
            }
        }
        let _ = self.d.forward_inplace(&self.scratch.combined, true);
        // Borrow the tap instead of cloning the full n x d embedding block.
        let h = self.d.tap(self.tap);
        let h_real = h.select_rows(&(0..n_real).collect::<Vec<_>>());
        let h_fake = h.select_rows(&(n_real..h.rows()).collect::<Vec<_>>());
        let (h_rows, h_cols) = h.shape();
        let (loss, grad_h_fake) = feature_matching_loss(&h_real, &h_fake);

        // Backprop dL/dh through the discriminator prefix to get dL/d(fake
        // input of D) — zeroing the real block's gradient.
        self.scratch.grad_h.resize(h_rows, h_cols);
        self.scratch.grad_h.fill(0.0);
        for r in 0..h_fake.rows() {
            self.scratch
                .grad_h
                .row_mut(n_real + r)
                .copy_from_slice(grad_h_fake.row(r));
        }
        self.d.zero_grad(); // discard: D's params are NOT updated here
        {
            let scratch = &mut self.scratch;
            gale_nn::backward_from_tap_into(
                &mut self.d,
                self.tap,
                &scratch.grad_h,
                &mut scratch.grad_fake_input,
            );
        }
        let grad_fake_only = self
            .scratch
            .grad_fake_input
            .select_rows(&(n_real..self.scratch.grad_fake_input.rows()).collect::<Vec<_>>());
        self.d.zero_grad();
        self.g.zero_grad();
        let _ = self.g.backward(&grad_fake_only);
        self.g_opt.step(&mut self.g);
        loss
    }

    /// Full joint training (procedure SGAN): alternates generator and
    /// discriminator updates, decays learning rates, and early-stops on the
    /// validation loss when `val_targets` is non-empty.
    pub fn train(
        &mut self,
        x_r: &Matrix,
        x_s: &Matrix,
        targets: &[(usize, usize)],
        val_targets: &[(usize, usize)],
        rng: &mut Rng,
    ) -> TrainStats {
        let mut stats = TrainStats::default();
        let mut best_val = f64::INFINITY;
        let mut stale = 0usize;
        for epoch in 0..self.cfg.epochs {
            stats.epochs_run = epoch + 1;
            let unsup_rows = rng.sample_indices(x_r.rows(), self.cfg.batch_unsup);
            let fake_rows = if x_s.rows() > 0 {
                rng.sample_indices(x_s.rows(), self.cfg.batch_unsup.min(x_s.rows()))
            } else {
                Vec::new()
            };
            stats.g_loss = self.g_step(x_r, x_s, &unsup_rows, &fake_rows);
            stats.d_loss = self.d_step(x_r, x_s, targets, &unsup_rows, &fake_rows, rng);
            gale_obs::event!(
                "sgan.epoch",
                epoch = epoch,
                d_loss = stats.d_loss,
                g_loss = stats.g_loss,
            );
            self.d_opt.decay_lr(self.cfg.lr_decay);
            self.g_opt.decay_lr(self.cfg.lr_decay);

            if self.cfg.early_stop_patience > 0 && !val_targets.is_empty() {
                let logits = self.d.forward(x_r, false);
                let (val_loss, _) = softmax_cross_entropy(&logits, val_targets);
                if val_loss + 1e-6 < best_val {
                    best_val = val_loss;
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= self.cfg.early_stop_patience {
                        break;
                    }
                }
            }
        }
        stats
    }

    /// Incremental discriminator refresh (procedure SGAND): descends
    /// `L^i(D)` on the updated example set for a few epochs, leaving `G`
    /// untouched.
    pub fn update_discriminator(
        &mut self,
        x_r: &Matrix,
        x_s: &Matrix,
        targets: &[(usize, usize)],
        rng: &mut Rng,
    ) -> TrainStats {
        let mut stats = TrainStats::default();
        let full_lr = self.d_opt.lr;
        self.d_opt.lr = full_lr * self.cfg.incremental_lr_scale;
        for epoch in 0..self.cfg.incremental_epochs {
            stats.epochs_run = epoch + 1;
            let unsup_rows = rng.sample_indices(x_r.rows(), self.cfg.batch_unsup);
            let fake_rows = if x_s.rows() > 0 {
                rng.sample_indices(x_s.rows(), self.cfg.batch_unsup.min(x_s.rows()))
            } else {
                Vec::new()
            };
            stats.d_loss = self.d_step(x_r, x_s, targets, &unsup_rows, &fake_rows, rng);
            gale_obs::event!(
                "sgan.incremental_epoch",
                epoch = epoch,
                d_loss = stats.d_loss,
            );
        }
        self.d_opt.lr = full_lr;
        stats
    }

    /// Raw 3-class logits in evaluation mode.
    pub fn logits(&mut self, x: &Matrix) -> Matrix {
        self.d.forward(x, false)
    }

    /// Full 3-class probabilities {error, correct, synthetic} in evaluation
    /// mode, written into a reusable caller buffer.
    ///
    /// This is the serving path: one batched forward through the
    /// discriminator's `_into` kernels followed by an in-place softmax that
    /// mirrors [`Matrix::softmax_rows`] operation-for-operation, so scores
    /// served out-of-process are bitwise equal to in-process evaluation.
    pub fn probs3_into(&mut self, x: &Matrix, out: &mut Matrix) {
        out.copy_from(self.d.forward_inplace(x, false));
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                z += *v;
            }
            if z > 0.0 {
                for v in row.iter_mut() {
                    *v /= z;
                }
            }
        }
    }

    /// Class probabilities over {error, correct}, renormalized after
    /// dropping the synthetic class — the classifier `M` of Section III.
    pub fn class_probs(&mut self, x: &Matrix) -> Matrix {
        let mut probs = Matrix::zeros(0, 0);
        self.probs3_into(x, &mut probs);
        let mut out = Matrix::zeros(x.rows(), 2);
        for r in 0..x.rows() {
            let pe = probs[(r, 0)];
            let pc = probs[(r, 1)];
            let z = (pe + pc).max(1e-12);
            out[(r, 0)] = pe / z;
            out[(r, 1)] = pc / z;
        }
        out
    }

    /// Node embeddings `H_n(X)` — the tapped intermediate layer, evaluation
    /// mode. Forwarded to the query-selection module each iteration.
    pub fn embeddings(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.embeddings_into(x, &mut out);
        out
    }

    /// [`Sgan::embeddings`] writing into a reusable caller buffer, so the
    /// per-iteration `n x d` embedding extraction stops allocating.
    pub fn embeddings_into(&mut self, x: &Matrix, out: &mut Matrix) {
        let _ = self.d.forward_inplace(x, false);
        out.copy_from(self.d.tap(self.tap));
    }

    /// One evaluation pass over `x`, `chunk` rows at a time: writes the
    /// 2-class probabilities of [`Sgan::class_probs`] into `probs`
    /// (`n × 2`) and the tapped embeddings of [`Sgan::embeddings`] into `h`
    /// (`n × tap_dim`). Evaluation mode is row-independent (batch norm uses
    /// running statistics, dropout is off), so both are bitwise equal to
    /// the one-shot paths at any chunk size — asserted by the module tests.
    /// When one chunk covers every row, `x` is forwarded as is; smaller
    /// chunks hold one `chunk`-row activation set instead of `n` rows,
    /// which is what lets the out-of-core loop score a million nodes under
    /// the scale bench's memory ceiling.
    pub(crate) fn eval_into(
        &mut self,
        x: &Matrix,
        chunk: usize,
        probs: &mut Matrix,
        h: &mut Matrix,
    ) {
        assert!(chunk > 0, "eval_into: chunk must be > 0");
        let n = x.rows();
        probs.resize(n, 2);
        let tap_dim = *self.cfg.d_hidden.last().expect("d_hidden is not empty");
        h.resize(n, tap_dim);
        let (mut xb, mut p3) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut lo = 0;
        while lo < n {
            let hi = lo + chunk.min(n - lo);
            let rows = if hi - lo == n {
                x
            } else {
                xb.resize(hi - lo, x.cols());
                for r in lo..hi {
                    xb.row_mut(r - lo).copy_from_slice(x.row(r));
                }
                &xb
            };
            self.probs3_into(rows, &mut p3);
            let tap = self.d.tap(self.tap);
            for r in 0..p3.rows() {
                h.row_mut(lo + r).copy_from_slice(tap.row(r));
                let (pe, pc) = (p3[(r, 0)], p3[(r, 1)]);
                let z = (pe + pc).max(1e-12);
                probs[(lo + r, 0)] = pe / z;
                probs[(lo + r, 1)] = pc / z;
            }
            lo = hi;
        }
    }

    /// Generates fake encodings from synthetic inputs (diagnostics).
    pub fn generate(&mut self, x_s: &Matrix) -> Matrix {
        self.g.forward(x_s, false)
    }

    /// Serializes the full model — both players, both Adam optimizers, the
    /// embedding tap, and every hyperparameter — as a checkpoint document
    /// (`kind: "sgan"`). Training resumes exactly from a restored copy.
    pub fn to_json(&self) -> Result<Value, CkptError> {
        let body = json!({
            "input_dim": self.input_dim,
            "tap": self.tap,
            "config": config_to_json(&self.cfg),
            "d": mlp_to_json(&self.d)?,
            "g": mlp_to_json(&self.g)?,
            "d_opt": adam_to_json(&self.d_opt),
            "g_opt": adam_to_json(&self.g_opt),
        });
        Ok(envelope(SGAN_CKPT_KIND, &body))
    }

    /// Rebuilds a model from a document produced by [`Sgan::to_json`].
    pub fn from_json(doc: &Value) -> Result<Sgan, CkptError> {
        let v = open_envelope(doc, SGAN_CKPT_KIND)?;
        let input_dim = need_usize(v, "input_dim")?;
        let tap = need_usize(v, "tap")?;
        let cfg = config_from_json(need(v, "config")?)?;
        let d = mlp_from_json(need(v, "d")?)?;
        let g = mlp_from_json(need(v, "g")?)?;
        if tap >= d.depth() {
            return Err(CkptError::Schema(format!(
                "tap index {tap} out of range for a depth-{} discriminator",
                d.depth()
            )));
        }
        Ok(Sgan {
            d,
            g,
            d_opt: adam_from_json(need(v, "d_opt")?)?,
            g_opt: adam_from_json(need(v, "g_opt")?)?,
            tap,
            cfg,
            input_dim,
            scratch: SganScratch::default(),
        })
    }

    /// Writes a checkpoint file at `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CkptError> {
        checkpoint::write_file(path.as_ref(), &self.to_json()?)
    }

    /// Loads a checkpoint file written by [`Sgan::save`]. Corrupt,
    /// truncated, or version-mismatched files surface as a typed error.
    pub fn load(path: impl AsRef<Path>) -> Result<Sgan, CkptError> {
        Sgan::from_json(&checkpoint::read_file(path.as_ref())?)
    }
}

/// Forward-only serving replica of a trained [`Sgan`]: the discriminator
/// alone, lowered to element `E` (see `gale_nn::infer`). `f64` replicas
/// reproduce [`Sgan::probs3_into`] bit for bit; `f32` replicas are the
/// bandwidth-halved path validated by the tolerance-gated precision bench.
pub struct SganInfer<E: Element> {
    d: InferNet<E>,
    /// Index of the tapped (embedding) layer inside `d`.
    tap: usize,
    input_dim: usize,
}

impl<E: Element> SganInfer<E> {
    /// Encoding dimensionality this replica was built for.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Bit width of the serving element type (64 or 32), for telemetry.
    pub fn precision_bits(&self) -> u32 {
        E::BITS
    }

    /// Full 3-class probabilities {error, correct, synthetic}, mirroring
    /// [`Sgan::probs3_into`] operation for operation: one batched forward
    /// through the `_into` kernels, then an in-place row softmax with the
    /// same max-subtract / exp / renormalize chain.
    pub fn probs3_into(&mut self, x: &Matrix<E>, out: &mut Matrix<E>) {
        out.copy_from(self.d.forward_inplace(x));
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(E::NEG_INFINITY, |m, v| m.max_e(v));
            let mut z = E::ZERO;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                z += *v;
            }
            if z > E::ZERO {
                for v in row.iter_mut() {
                    *v /= z;
                }
            }
        }
    }

    /// Node embeddings from the tapped intermediate layer, mirroring
    /// [`Sgan::embeddings_into`].
    pub fn embeddings_into(&mut self, x: &Matrix<E>, out: &mut Matrix<E>) {
        let _ = self.d.forward_inplace(x);
        out.copy_from(self.d.tap(self.tap));
    }
}

impl Sgan {
    /// Lowers the discriminator into a forward-only serving replica over
    /// element `E`. One-way: nothing converts back into training state.
    pub fn to_infer<E: Element>(&self) -> SganInfer<E> {
        SganInfer {
            d: self.d.to_infer::<E>(),
            tap: self.tap,
            input_dim: self.input_dim,
        }
    }

    /// One-way lowering to the `f32` serving replica.
    pub fn to_f32(&self) -> SganInfer<f32> {
        self.to_infer::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    /// Real data: two Gaussian blobs (errors near +2, correct near -2) in
    /// `dim` dimensions. Synthetic inputs: noise near the error blob.
    fn toy_data(rng: &mut Rng, n: usize, dim: usize) -> (Matrix, Matrix, Vec<Label>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let center = if i % 4 == 0 { 2.0 } else { -2.0 };
            labels.push(if i % 4 == 0 {
                Label::Error
            } else {
                Label::Correct
            });
            rows.push((0..dim).map(|_| center + rng.gauss() * 0.6).collect());
        }
        let x_r = Matrix::from_rows(&rows);
        let x_s = Matrix::from_fn(n / 2, dim, |_, _| 2.0 + rng.gauss());
        (x_r, x_s, labels)
    }

    #[test]
    fn chunked_eval_is_bitwise_equal_to_one_shot() {
        let mut rng = Rng::seed_from_u64(91);
        let n = 90;
        let (x_r, x_s, labels) = toy_data(&mut rng, n, 5);
        let targets: Vec<(usize, usize)> = labels
            .iter()
            .enumerate()
            .step_by(3)
            .map(|(i, l)| (i, l.class_index()))
            .collect();
        let mut sgan = Sgan::new(5, &small_cfg(), &mut rng);
        let _ = sgan.train(&x_r, &x_s, &targets, &[], &mut rng);

        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let full_probs = bits(&sgan.class_probs(&x_r));
        let full_h = sgan.embeddings(&x_r);
        for threads in [1, 2] {
            for chunk in [1, 37, n] {
                let (mut probs, mut h) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                gale_tensor::par::with_threads(threads, || {
                    sgan.eval_into(&x_r, chunk, &mut probs, &mut h)
                });
                assert_eq!(probs.shape(), (n, 2));
                assert_eq!(h.shape(), full_h.shape());
                let at = format!("chunk {chunk}, {threads} threads");
                assert_eq!(bits(&probs), full_probs, "probabilities, {at}");
                assert_eq!(bits(&h), bits(&full_h), "tap, {at}");
            }
        }
    }

    fn small_cfg() -> SganConfig {
        SganConfig {
            d_hidden: vec![16, 8],
            g_hidden: vec![16],
            epochs: 120,
            incremental_epochs: 10,
            batch_unsup: 64,
            early_stop_patience: 0,
            ..Default::default()
        }
    }

    #[test]
    fn sgan_learns_toy_separation() {
        let mut rng = Rng::seed_from_u64(201);
        let (x_r, x_s, labels) = toy_data(&mut rng, 200, 6);
        // Label 20% of rows.
        let targets: Vec<(usize, usize)> = (0..200)
            .step_by(5)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let mut sgan = Sgan::new(6, &small_cfg(), &mut rng);
        let stats = sgan.train(&x_r, &x_s, &targets, &[], &mut rng);
        assert_eq!(stats.epochs_run, 120);
        // Accuracy on all rows.
        let probs = sgan.class_probs(&x_r);
        let correct = (0..200)
            .filter(|&r| {
                let pred = if probs[(r, 0)] > probs[(r, 1)] {
                    Label::Error
                } else {
                    Label::Correct
                };
                pred == labels[r]
            })
            .count();
        assert!(correct >= 180, "accuracy {correct}/200");
    }

    #[test]
    fn class_probs_normalized() {
        let mut rng = Rng::seed_from_u64(202);
        let (x_r, _, _) = toy_data(&mut rng, 50, 4);
        let mut sgan = Sgan::new(4, &small_cfg(), &mut rng);
        let p = sgan.class_probs(&x_r);
        for r in 0..50 {
            assert!((p[(r, 0)] + p[(r, 1)] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn embeddings_have_tap_width() {
        let mut rng = Rng::seed_from_u64(203);
        let (x_r, _, _) = toy_data(&mut rng, 20, 4);
        let cfg = small_cfg();
        let mut sgan = Sgan::new(4, &cfg, &mut rng);
        let h = sgan.embeddings(&x_r);
        assert_eq!(h.shape(), (20, *cfg.d_hidden.last().unwrap()));
    }

    #[test]
    fn incremental_update_improves_on_new_labels() {
        let mut rng = Rng::seed_from_u64(204);
        let (x_r, x_s, labels) = toy_data(&mut rng, 200, 6);
        // Train with very few labels first.
        let sparse: Vec<(usize, usize)> = (0..200)
            .step_by(50)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let mut sgan = Sgan::new(6, &small_cfg(), &mut rng);
        let _ = sgan.train(&x_r, &x_s, &sparse, &[], &mut rng);
        let probs_before = sgan.class_probs(&x_r);
        let acc = |p: &Matrix| {
            (0..200)
                .filter(|&r| (p[(r, 0)] > p[(r, 1)]) == (labels[r] == Label::Error))
                .count()
        };
        let acc_before = acc(&probs_before);
        // SGAND with a much richer example set.
        let dense: Vec<(usize, usize)> = (0..200)
            .step_by(3)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        for _ in 0..5 {
            let _ = sgan.update_discriminator(&x_r, &x_s, &dense, &mut rng);
        }
        let acc_after = acc(&sgan.class_probs(&x_r));
        assert!(
            acc_after >= acc_before,
            "SGAND regressed: {acc_before} -> {acc_after}"
        );
        assert!(acc_after > 180, "accuracy after SGAND: {acc_after}");
    }

    #[test]
    fn generator_moves_toward_real_distribution() {
        let mut rng = Rng::seed_from_u64(205);
        let (x_r, x_s, labels) = toy_data(&mut rng, 200, 6);
        let targets: Vec<(usize, usize)> = (0..200)
            .step_by(5)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let mut sgan = Sgan::new(6, &small_cfg(), &mut rng);
        // Feature-matching distance before training.
        let h_real0 = sgan.embeddings(&x_r);
        let fake0 = sgan.generate(&x_s);
        let h_fake0 = sgan.embeddings(&fake0);
        let (fm0, _) = feature_matching_loss(&h_real0, &h_fake0);
        let _ = sgan.train(&x_r, &x_s, &targets, &[], &mut rng);
        let h_real1 = sgan.embeddings(&x_r);
        let fake1 = sgan.generate(&x_s);
        let h_fake1 = sgan.embeddings(&fake1);
        let (fm1, _) = feature_matching_loss(&h_real1, &h_fake1);
        assert!(fm1 < fm0 * 2.0, "feature matching exploded: {fm0} -> {fm1}");
    }

    #[test]
    fn early_stopping_cuts_epochs() {
        let mut rng = Rng::seed_from_u64(206);
        let (x_r, x_s, labels) = toy_data(&mut rng, 120, 4);
        let targets: Vec<(usize, usize)> = (0..120)
            .step_by(4)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let val: Vec<(usize, usize)> = (1..120)
            .step_by(7)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let cfg = SganConfig {
            epochs: 400,
            early_stop_patience: 10,
            ..small_cfg()
        };
        let mut sgan = Sgan::new(4, &cfg, &mut rng);
        let stats = sgan.train(&x_r, &x_s, &targets, &val, &mut rng);
        assert!(
            stats.epochs_run < 400,
            "early stopping never fired ({} epochs)",
            stats.epochs_run
        );
    }

    #[test]
    fn probs3_mirrors_softmax_rows_bitwise() {
        let mut rng = Rng::seed_from_u64(208);
        let (x_r, x_s, labels) = toy_data(&mut rng, 60, 5);
        let targets: Vec<(usize, usize)> = (0..60)
            .step_by(4)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let mut sgan = Sgan::new(5, &small_cfg(), &mut rng);
        let _ = sgan.train(&x_r, &x_s, &targets, &[], &mut rng);
        let reference = sgan.logits(&x_r).softmax_rows();
        let mut probs = Matrix::zeros(0, 0);
        sgan.probs3_into(&x_r, &mut probs);
        assert_eq!(probs.shape(), (60, 3));
        for (a, b) in reference.data().iter().zip(probs.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn checkpoint_round_trip_is_byte_identical_and_resumes() {
        let mut rng = Rng::seed_from_u64(209);
        let (x_r, x_s, labels) = toy_data(&mut rng, 80, 5);
        let targets: Vec<(usize, usize)> = (0..80)
            .step_by(5)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let cfg = SganConfig {
            epochs: 20,
            ..small_cfg()
        };
        let mut sgan = Sgan::new(5, &cfg, &mut rng);
        let _ = sgan.train(&x_r, &x_s, &targets, &[], &mut rng);

        let text1 = sgan.to_json().unwrap().to_string_compact();
        let mut restored = Sgan::from_json(&gale_json::from_str(&text1).unwrap()).unwrap();
        let text2 = restored.to_json().unwrap().to_string_compact();
        assert_eq!(text1, text2, "save -> load -> save must be byte-identical");

        // Served scores must be bitwise equal to the in-process model.
        let (mut p1, mut p2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        sgan.probs3_into(&x_r, &mut p1);
        restored.probs3_into(&x_r, &mut p2);
        for (a, b) in p1.data().iter().zip(p2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Training must resume identically: one SGAND refresh on each copy
        // from identical RNG state produces bitwise-equal scores.
        let mut r1 = Rng::seed_from_u64(77);
        let mut r2 = Rng::seed_from_u64(77);
        let _ = sgan.update_discriminator(&x_r, &x_s, &targets, &mut r1);
        let _ = restored.update_discriminator(&x_r, &x_s, &targets, &mut r2);
        sgan.probs3_into(&x_r, &mut p1);
        restored.probs3_into(&x_r, &mut p2);
        for (a, b) in p1.data().iter().zip(p2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn checkpoint_rejects_corrupt_documents() {
        let mut rng = Rng::seed_from_u64(210);
        let sgan = Sgan::new(4, &small_cfg(), &mut rng);
        let good = sgan.to_json().unwrap();

        let mut wrong_kind = good.clone();
        if let Value::Object(m) = &mut wrong_kind {
            m.insert("kind", Value::Str("mlp".into()));
        }
        assert!(matches!(
            Sgan::from_json(&wrong_kind),
            Err(CkptError::Kind { .. })
        ));

        let mut wrong_version = good.clone();
        if let Value::Object(m) = &mut wrong_version {
            m.insert("version", Value::Int(42));
        }
        assert!(matches!(
            Sgan::from_json(&wrong_version),
            Err(CkptError::Version { .. })
        ));

        let mut bad_tap = good.clone();
        if let Value::Object(m) = &mut bad_tap {
            m.insert("tap", Value::Int(999));
        }
        assert!(matches!(
            Sgan::from_json(&bad_tap),
            Err(CkptError::Schema(_))
        ));

        let mut clobbered = good.clone();
        if let Value::Object(m) = &mut clobbered {
            m.insert("g_opt", Value::Null);
        }
        assert!(matches!(
            Sgan::from_json(&clobbered),
            Err(CkptError::Schema(_))
        ));
    }

    #[test]
    fn checkpoint_file_round_trip() {
        let dir = std::env::temp_dir().join("gale_sgan_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sgan.ckpt");
        let mut rng = Rng::seed_from_u64(211);
        let sgan = Sgan::new(3, &small_cfg(), &mut rng);
        sgan.save(&path).unwrap();
        let restored = Sgan::load(&path).unwrap();
        assert_eq!(restored.input_dim(), 3);
        assert!(matches!(
            Sgan::load(dir.join("absent.ckpt")),
            Err(CkptError::Io { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_synthetic_set_still_trains() {
        let mut rng = Rng::seed_from_u64(207);
        let (x_r, _, labels) = toy_data(&mut rng, 80, 4);
        let x_s = Matrix::zeros(0, 4);
        let targets: Vec<(usize, usize)> = (0..80)
            .step_by(4)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let mut sgan = Sgan::new(4, &small_cfg(), &mut rng);
        let stats = sgan.train(&x_r, &x_s, &targets, &[], &mut rng);
        assert!(stats.d_loss.is_finite());
    }

    /// A briefly trained SGAN plus its real-encoding matrix, for the
    /// lowering parity tests.
    fn tiny_trained_sgan(rng: &mut Rng) -> (Sgan, Matrix) {
        let (x_r, x_s, labels) = toy_data(rng, 40, 5);
        let targets: Vec<(usize, usize)> = (0..40)
            .step_by(4)
            .map(|r| (r, labels[r].class_index()))
            .collect();
        let mut sgan = Sgan::new(5, &small_cfg(), rng);
        let _ = sgan.train(&x_r, &x_s, &targets, &[], rng);
        (sgan, x_r)
    }

    #[test]
    fn f64_infer_replica_matches_probs3_bitwise() {
        // Every served f64 score rests on this parity. The row counts are
        // the shapes a coalesced serving batch can take, crossing the 4x8
        // GEMM tile edges; each runs at 1, 2 and 8 threads. Probabilities
        // and the embedding tap must both match bit for bit.
        let mut rng = Rng::seed_from_u64(5);
        let (mut sgan, x_r) = tiny_trained_sgan(&mut rng);
        let mut replica = sgan.to_infer::<f64>();
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut batches = vec![x_r];
        for rows in [1usize, 3, 4, 7, 64, 65, 129] {
            batches.push(Matrix::randn(rows, 5, 1.5, &mut rng));
        }
        let (mut want, mut got) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for x in &batches {
            for threads in [1usize, 2, 8] {
                gale_tensor::par::with_threads(threads, || {
                    let rows = x.rows();
                    sgan.probs3_into(x, &mut want);
                    replica.probs3_into(x, &mut got);
                    assert_eq!(got.shape(), want.shape());
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "probs: {rows} rows, {threads} threads"
                    );
                    sgan.embeddings_into(x, &mut want);
                    replica.embeddings_into(x, &mut got);
                    assert_eq!(got.shape(), want.shape());
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "tap: {rows} rows, {threads} threads"
                    );
                });
            }
        }
    }

    #[test]
    fn f32_infer_replica_tracks_f64_probs_within_tolerance() {
        let mut rng = Rng::seed_from_u64(6);
        let (mut sgan, x_r) = tiny_trained_sgan(&mut rng);
        let mut p64 = Matrix::zeros(0, 0);
        sgan.probs3_into(&x_r, &mut p64);
        let mut replica = sgan.to_f32();
        assert_eq!(replica.precision_bits(), 32);
        assert_eq!(replica.input_dim(), sgan.input_dim());
        let mut p32: Matrix<f32> = Matrix::zeros(0, 0);
        replica.probs3_into(&x_r.to_f32(), &mut p32);
        assert_eq!(p32.shape(), p64.shape());
        for r in 0..p64.rows() {
            // Probabilities live in [0,1]; absolute tolerance is the
            // natural contract (it is what the precision bench gates on).
            for c in 0..p64.cols() {
                let d = (p32[(r, c)] as f64 - p64[(r, c)]).abs();
                assert!(
                    d <= 1e-4,
                    "({r},{c}): |{} - {}| = {d}",
                    p32[(r, c)],
                    p64[(r, c)]
                );
            }
            // And verdicts (argmax over the error/correct margin) agree.
            let v64 = p64[(r, 0)] > p64[(r, 1)];
            let v32 = p32[(r, 0)] > p32[(r, 1)];
            assert_eq!(v32, v64, "verdict flip on row {r}");
        }
    }
}
