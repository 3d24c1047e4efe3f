#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/check.h"
#include "nn/flops.h"
#include "nn/kernels/kernels.h"
#include "nn/losses.h"

namespace lighttr::nn {

namespace {

// Shorthand: number of elements, for element-wise FLOP accounting.
int64_t Elems(const Matrix& m) { return static_cast<int64_t>(m.size()); }

// out(r, c) += bias(0, c) on every row: AddRowBroadcast's forward.
void AddBiasToRows(const Matrix& bias, Matrix* out) {
  for (size_t r = 0; r < out->rows(); ++r) {
    for (size_t c = 0; c < out->cols(); ++c) (*out)(r, c) += bias(0, c);
  }
}

// bias_grad(0, c) += g(r, c) over every row: AddRowBroadcast's bias
// backward.
void AddColumnSums(const Matrix& g, Matrix* bias_grad) {
  for (size_t r = 0; r < g.rows(); ++r) {
    for (size_t c = 0; c < g.cols(); ++c) (*bias_grad)(0, c) += g(r, c);
  }
}

// CandidateLogits' forward on plain matrices, into `out` ([1, K]).
void CandidateLogitsInto(const Matrix& h, const Matrix& w, const Matrix& b,
                         const std::vector<int>& candidates, Matrix* out) {
  LIGHTTR_CHECK_EQ(h.rows(), 1u);
  LIGHTTR_CHECK_EQ(h.cols(), w.rows());
  LIGHTTR_CHECK_EQ(b.rows(), 1u);
  LIGHTTR_CHECK_EQ(b.cols(), w.cols());
  LIGHTTR_CHECK(!candidates.empty());
  for (int cls : candidates) {
    LIGHTTR_CHECK_LT(static_cast<size_t>(cls), w.cols());
  }
  const size_t hidden = h.cols();
  const size_t stride = w.cols();
  const size_t count = candidates.size();
  LIGHTTR_DCHECK_EQ(out->size(), count);
  const Scalar* hv = h.data();
  const Scalar* wv = w.data();
  const Scalar* bv = b.data();
  const int* cls = candidates.data();
  Scalar* ov = out->data();
  // Each logit is one chain: b[c], then + h[i] * w[i][c] for i = 0..H-1
  // (DESIGN.md §5). Blocks of 4 candidates run 4 chains side by side;
  // every chain keeps its own order, so the values equal the serial loop.
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const auto c0 = static_cast<size_t>(cls[k]);
    const auto c1 = static_cast<size_t>(cls[k + 1]);
    const auto c2 = static_cast<size_t>(cls[k + 2]);
    const auto c3 = static_cast<size_t>(cls[k + 3]);
    Scalar a0 = bv[c0];
    Scalar a1 = bv[c1];
    Scalar a2 = bv[c2];
    Scalar a3 = bv[c3];
    for (size_t i = 0; i < hidden; ++i) {
      const Scalar hi = hv[i];
      const Scalar* row = wv + i * stride;
      a0 += hi * row[c0];
      a1 += hi * row[c1];
      a2 += hi * row[c2];
      a3 += hi * row[c3];
    }
    ov[k] = a0;
    ov[k + 1] = a1;
    ov[k + 2] = a2;
    ov[k + 3] = a3;
  }
  for (; k < count; ++k) {
    const auto c = static_cast<size_t>(cls[k]);
    Scalar acc = bv[c];
    for (size_t i = 0; i < hidden; ++i) acc += hv[i] * wv[i * stride + c];
    ov[k] = acc;
  }
  AddFlops(static_cast<int64_t>(2 * hidden * count));
}

// CandidateLogits' backward for the logits' gradient `g_logits` ([1, K]).
void CandidateLogitsBackward(const Tensor& h, const Tensor& w, const Tensor& b,
                             const std::vector<int>& candidates,
                             const Matrix& g_logits) {
  const size_t grad_hidden = h.cols();
  const size_t grad_stride = w.cols();
  const size_t n = candidates.size();
  const Scalar* g = g_logits.data();
  AddFlops(static_cast<int64_t>(4 * grad_hidden * n));
  // The grads are fetched (allocated on first use) at the first
  // nonzero upstream value, so an all-zero upstream leaves them
  // unallocated. Candidates then add in k order, so a repeated id
  // sums its contributions in that order.
  size_t first = 0;
  while (first < n && g[first] == Scalar{0}) ++first;
  if (first == n) return;
  Scalar* hg = h.requires_grad() ? h.grad().data() : nullptr;
  Scalar* wg = w.requires_grad() ? w.grad().data() : nullptr;
  Scalar* bg = b.requires_grad() ? b.grad().data() : nullptr;
  const Scalar* h_val = h.value().data();
  const Scalar* w_val = w.value().data();
  for (size_t j = first; j < n; ++j) {
    const Scalar gj = g[j];
    if (gj == Scalar{0}) continue;
    const auto c = static_cast<size_t>(candidates[j]);
    if (hg != nullptr) {
      for (size_t i = 0; i < grad_hidden; ++i) {
        hg[i] += gj * w_val[i * grad_stride + c];
      }
    }
    if (wg != nullptr) {
      for (size_t i = 0; i < grad_hidden; ++i) {
        wg[i * grad_stride + c] += gj * h_val[i];
      }
    }
    if (bg != nullptr) bg[c] += gj;
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  LIGHTTR_DCHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  out.AddInPlace(b.value());
  AddFlops(Elems(out));
  if (!RecordsGradient(a, b)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a, b}, [a, b](TensorNode& self) {
    if (a.requires_grad()) a.grad().AddInPlace(self.grad);
    if (b.requires_grad()) b.grad().AddInPlace(self.grad);
  });
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  LIGHTTR_DCHECK_EQ(bias.rows(), 1u);
  LIGHTTR_DCHECK_EQ(bias.cols(), x.cols());
  Matrix out = x.value();
  AddBiasToRows(bias.value(), &out);
  AddFlops(Elems(out));
  if (!RecordsGradient(x, bias)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(
      std::move(out), {x, bias}, [x, bias](TensorNode& self) {
        if (x.requires_grad()) x.grad().AddInPlace(self.grad);
        if (bias.requires_grad()) AddColumnSums(self.grad, &bias.grad());
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  LIGHTTR_DCHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  out.AddScaled(b.value(), Scalar{-1});
  AddFlops(Elems(out));
  if (!RecordsGradient(a, b)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a, b}, [a, b](TensorNode& self) {
    if (a.requires_grad()) a.grad().AddInPlace(self.grad);
    if (b.requires_grad()) b.grad().AddScaled(self.grad, Scalar{-1});
  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  LIGHTTR_DCHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= b.value().data()[i];
  AddFlops(Elems(out));
  if (!RecordsGradient(a, b)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a, b}, [a, b](TensorNode& self) {
    const size_t n = self.grad.size();
    if (a.requires_grad()) {
      Matrix& ag = a.grad();
      for (size_t i = 0; i < n; ++i) {
        ag.data()[i] += self.grad.data()[i] * b.value().data()[i];
      }
    }
    if (b.requires_grad()) {
      Matrix& bg = b.grad();
      for (size_t i = 0; i < n; ++i) {
        bg.data()[i] += self.grad.data()[i] * a.value().data()[i];
      }
    }
    AddFlops(2 * static_cast<int64_t>(n));
  });
}

Tensor Scale(const Tensor& a, Scalar s) {
  Matrix out = a.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= s;
  AddFlops(Elems(out));
  if (!RecordsGradient(a)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a}, [a, s](TensorNode& self) {
    if (a.requires_grad()) a.grad().AddScaled(self.grad, s);
  });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  LIGHTTR_DCHECK_EQ(a.cols(), b.rows());
  Matrix out = MatMulValues(a.value(), b.value());
  if (!RecordsGradient(a, b)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a, b}, [a, b](TensorNode& self) {
    if (a.requires_grad()) {
      MatMulTransBAccumulate(self.grad, b.value(), &a.grad());
    }
    if (b.requires_grad()) {
      MatMulTransAAccumulate(a.value(), self.grad, &b.grad());
    }
  });
}

Tensor Sigmoid(const Tensor& a) {
  Matrix out = a.value();
  kernels::SigmoidInPlace(out.data(), out.size());
  AddFlops(4 * Elems(out));
  if (!RecordsGradient(a)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a}, [a](TensorNode& self) {
    if (!a.requires_grad()) return;
    Matrix& ag = a.grad();
    for (size_t i = 0; i < self.grad.size(); ++i) {
      const Scalar y = self.value.data()[i];
      ag.data()[i] += self.grad.data()[i] * y * (Scalar{1} - y);
    }
    AddFlops(3 * static_cast<int64_t>(self.grad.size()));
  });
}

Tensor Tanh(const Tensor& a) {
  Matrix out = a.value();
  kernels::TanhInPlace(out.data(), out.size());
  AddFlops(4 * Elems(out));
  if (!RecordsGradient(a)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a}, [a](TensorNode& self) {
    if (!a.requires_grad()) return;
    Matrix& ag = a.grad();
    for (size_t i = 0; i < self.grad.size(); ++i) {
      const Scalar y = self.value.data()[i];
      ag.data()[i] += self.grad.data()[i] * (Scalar{1} - y * y);
    }
    AddFlops(3 * static_cast<int64_t>(self.grad.size()));
  });
}

Tensor Relu(const Tensor& a) {
  Matrix out = a.value();
  for (size_t i = 0; i < out.size(); ++i) {
    if (out.data()[i] < Scalar{0}) out.data()[i] = Scalar{0};
  }
  AddFlops(Elems(out));
  if (!RecordsGradient(a)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a}, [a](TensorNode& self) {
    if (!a.requires_grad()) return;
    Matrix& ag = a.grad();
    for (size_t i = 0; i < self.grad.size(); ++i) {
      if (self.value.data()[i] > Scalar{0}) {
        ag.data()[i] += self.grad.data()[i];
      }
    }
  });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  LIGHTTR_DCHECK_EQ(a.rows(), b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) out(r, c) = a.value()(r, c);
    for (size_t c = 0; c < b.cols(); ++c) {
      out(r, a.cols() + c) = b.value()(r, c);
    }
  }
  if (!RecordsGradient(a, b)) return Tensor::Constant(std::move(out));
  const size_t na = a.cols();
  return Tensor::MakeOp(std::move(out), {a, b}, [a, b, na](TensorNode& self) {
    if (a.requires_grad()) {
      Matrix& ag = a.grad();
      for (size_t r = 0; r < ag.rows(); ++r) {
        for (size_t c = 0; c < ag.cols(); ++c) ag(r, c) += self.grad(r, c);
      }
    }
    if (b.requires_grad()) {
      Matrix& bg = b.grad();
      for (size_t r = 0; r < bg.rows(); ++r) {
        for (size_t c = 0; c < bg.cols(); ++c) {
          bg(r, c) += self.grad(r, na + c);
        }
      }
    }
  });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  LIGHTTR_CHECK(!parts.empty());
  const size_t cols = parts[0].cols();
  size_t rows = 0;
  for (const Tensor& p : parts) {
    LIGHTTR_DCHECK_EQ(p.cols(), cols);
    rows += p.rows();
  }
  Matrix out(rows, cols);
  size_t offset = 0;
  for (const Tensor& p : parts) {
    for (size_t r = 0; r < p.rows(); ++r) {
      for (size_t c = 0; c < cols; ++c) out(offset + r, c) = p.value()(r, c);
    }
    offset += p.rows();
  }
  if (NoGradScope::Active() ||
      std::none_of(parts.begin(), parts.end(),
                   [](const Tensor& p) { return p.requires_grad(); })) {
    return Tensor::Constant(std::move(out));
  }
  return Tensor::MakeOp(std::move(out), parts, [parts](TensorNode& self) {
    size_t row_offset = 0;
    for (const Tensor& p : parts) {
      if (p.requires_grad()) {
        Matrix& pg = p.grad();
        for (size_t r = 0; r < p.rows(); ++r) {
          for (size_t c = 0; c < pg.cols(); ++c) {
            pg(r, c) += self.grad(row_offset + r, c);
          }
        }
      }
      row_offset += p.rows();
    }
  });
}

Tensor SliceRows(const Tensor& a, size_t begin, size_t len) {
  LIGHTTR_DCHECK_LE(begin + len, a.rows());
  Matrix out(len, a.cols());
  for (size_t r = 0; r < len; ++r) {
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) = a.value()(begin + r, c);
  }
  if (!RecordsGradient(a)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a}, [a, begin](TensorNode& self) {
    if (!a.requires_grad()) return;
    Matrix& ag = a.grad();
    for (size_t r = 0; r < self.grad.rows(); ++r) {
      for (size_t c = 0; c < self.grad.cols(); ++c) {
        ag(begin + r, c) += self.grad(r, c);
      }
    }
  });
}

Tensor Transpose(const Tensor& a) {
  Matrix out(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) out(c, r) = a.value()(r, c);
  }
  if (!RecordsGradient(a)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a}, [a](TensorNode& self) {
    if (!a.requires_grad()) return;
    Matrix& ag = a.grad();
    for (size_t r = 0; r < self.grad.rows(); ++r) {
      for (size_t c = 0; c < self.grad.cols(); ++c) {
        ag(c, r) += self.grad(r, c);
      }
    }
  });
}

Tensor SoftmaxRows(const Tensor& a) {
  Matrix out = a.value();
  for (size_t r = 0; r < out.rows(); ++r) {
    Scalar row_max = out(r, 0);
    for (size_t c = 1; c < out.cols(); ++c) {
      row_max = std::max(row_max, out(r, c));
    }
    Scalar denom{0};
    for (size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = std::exp(out(r, c) - row_max);
      denom += out(r, c);
    }
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) /= denom;
  }
  AddFlops(5 * Elems(out));
  if (!RecordsGradient(a)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a}, [a](TensorNode& self) {
    if (!a.requires_grad()) return;
    Matrix& ag = a.grad();
    for (size_t r = 0; r < self.grad.rows(); ++r) {
      Scalar dot{0};
      for (size_t c = 0; c < self.grad.cols(); ++c) {
        dot += self.grad(r, c) * self.value(r, c);
      }
      for (size_t c = 0; c < self.grad.cols(); ++c) {
        ag(r, c) += self.value(r, c) * (self.grad(r, c) - dot);
      }
    }
    AddFlops(4 * static_cast<int64_t>(self.grad.size()));
  });
}

Tensor Sum(const Tensor& a) {
  Matrix out(1, 1);
  Scalar total{0};
  for (size_t i = 0; i < a.value().size(); ++i) total += a.value().data()[i];
  out(0, 0) = total;
  AddFlops(Elems(a.value()));
  if (!RecordsGradient(a)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {a}, [a](TensorNode& self) {
    if (!a.requires_grad()) return;
    const Scalar g = self.grad(0, 0);
    Matrix& ag = a.grad();
    for (size_t i = 0; i < ag.size(); ++i) ag.data()[i] += g;
  });
}

Tensor Mean(const Tensor& a) {
  const auto n = static_cast<Scalar>(a.value().size());
  return Scale(Sum(a), Scalar{1} / n);
}

Tensor Dropout(const Tensor& a, double p, bool training, Rng* rng) {
  LIGHTTR_CHECK_GE(p, 0.0);
  LIGHTTR_CHECK_LT(p, 1.0);
  if (!training || p == 0.0) return a;
  LIGHTTR_CHECK(rng != nullptr);
  const Scalar keep_scale = Scalar{1} / static_cast<Scalar>(1.0 - p);
  const bool records = RecordsGradient(a);
  // The mask is kept only for the backward; the RNG draws are the same
  // either way.
  std::vector<Scalar> mask(records ? a.value().size() : 0);
  Matrix out = a.value();
  for (size_t i = 0; i < out.size(); ++i) {
    const Scalar m = rng->Bernoulli(p) ? Scalar{0} : keep_scale;
    if (records) mask[i] = m;
    out.data()[i] *= m;
  }
  AddFlops(Elems(out));
  if (!records) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(
      std::move(out), {a}, [a, mask = std::move(mask)](TensorNode& self) {
        if (!a.requires_grad()) return;
        Matrix& ag = a.grad();
        for (size_t i = 0; i < ag.size(); ++i) {
          ag.data()[i] += self.grad.data()[i] * mask[i];
        }
      });
}

Tensor EmbeddingLookup(const Tensor& table, std::span<const int> ids) {
  LIGHTTR_CHECK(!ids.empty());
  const size_t dim = table.cols();
  Matrix out(ids.size(), dim);
  for (size_t r = 0; r < ids.size(); ++r) {
    LIGHTTR_DCHECK_GE(ids[r], 0);
    LIGHTTR_DCHECK_LT(static_cast<size_t>(ids[r]), table.rows());
    for (size_t c = 0; c < dim; ++c) {
      out(r, c) = table.value()(static_cast<size_t>(ids[r]), c);
    }
  }
  if (!RecordsGradient(table)) return Tensor::Constant(std::move(out));
  std::vector<int> rows(ids.begin(), ids.end());  // the closure's own copy
  return Tensor::MakeOp(std::move(out), {table},
                        [table, rows = std::move(rows)](TensorNode& self) {
    if (!table.requires_grad()) return;
    Matrix& tg = table.grad();
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < tg.cols(); ++c) {
        tg(static_cast<size_t>(rows[r]), c) += self.grad(r, c);
      }
    }
  });
}

Tensor GruStep(const Tensor& x, const Tensor& h_prev, const Tensor& wr,
               const Tensor& br, const Tensor& wz, const Tensor& bz,
               const Tensor& wh, const Tensor& bh) {
  const size_t n = x.rows();
  const size_t in_dim = x.cols();
  const size_t hidden = h_prev.cols();
  LIGHTTR_DCHECK_EQ(h_prev.rows(), n);
  LIGHTTR_DCHECK_EQ(wr.rows(), hidden + in_dim);
  LIGHTTR_DCHECK_EQ(wr.cols(), hidden);
  LIGHTTR_DCHECK(wr.value().SameShape(wz.value()));
  LIGHTTR_DCHECK(wr.value().SameShape(wh.value()));
  LIGHTTR_DCHECK_EQ(br.rows(), 1u);
  LIGHTTR_DCHECK_EQ(br.cols(), hidden);
  LIGHTTR_DCHECK(br.value().SameShape(bz.value()));
  LIGHTTR_DCHECK(br.value().SameShape(bh.value()));

  // Weight layout: rows [0, hidden) of each gate matrix multiply the
  // recurrent input, rows [hidden, hidden+in_dim) the step input. Both
  // blocks are contiguous in the row-major [(H+I), H] parameter, so the
  // concatenated-input product [h|x] W splits into two offset GEMMs
  // with no concat buffer — same accumulation order (h rows first,
  // then x rows) as the composed implementation it replaced.
  const size_t x_block = hidden * hidden;  // offset of the input block
  const Matrix& hv = h_prev.value();
  const Matrix& xv = x.value();

  // Packed r|z pre-activations: columns [0, H) hold the reset gate,
  // [H, 2H) the update gate; both accumulate via ldc-strided GEMMs and
  // activate in ONE sigmoid sweep over the whole buffer.
  Matrix rz(n, 2 * hidden);
  Scalar* rz_data = rz.data();
  kernels::GemmSmallNN(hv.data(), wr.value().data(), rz_data, n, hidden,
                       hidden, 2 * hidden);
  kernels::GemmSmallNN(xv.data(), wr.value().data() + x_block, rz_data, n,
                       in_dim, hidden, 2 * hidden);
  kernels::GemmSmallNN(hv.data(), wz.value().data(), rz_data + hidden, n,
                       hidden, hidden, 2 * hidden);
  kernels::GemmSmallNN(xv.data(), wz.value().data() + x_block,
                       rz_data + hidden, n, in_dim, hidden, 2 * hidden);
  for (size_t r = 0; r < n; ++r) {
    Scalar* row = rz_data + r * 2 * hidden;
    for (size_t c = 0; c < hidden; ++c) {
      row[c] += br.value().data()[c];
      row[hidden + c] += bz.value().data()[c];
    }
  }
  kernels::SigmoidInPlace(rz_data, n * 2 * hidden);

  // Candidate state: h~ = tanh((r*h) W_h[h-block] + x W_h[x-block] + b_h).
  Matrix rh(n, hidden);
  for (size_t r = 0; r < n; ++r) {
    const Scalar* gates = rz_data + r * 2 * hidden;
    const Scalar* hrow = hv.data() + r * hidden;
    Scalar* rhrow = rh.data() + r * hidden;
    for (size_t c = 0; c < hidden; ++c) rhrow[c] = gates[c] * hrow[c];
  }
  Matrix ht(n, hidden);
  kernels::GemmSmallNN(rh.data(), wh.value().data(), ht.data(), n, hidden,
                       hidden, hidden);
  kernels::GemmSmallNN(xv.data(), wh.value().data() + x_block, ht.data(), n,
                       in_dim, hidden, hidden);
  for (size_t r = 0; r < n; ++r) {
    Scalar* row = ht.data() + r * hidden;
    for (size_t c = 0; c < hidden; ++c) row[c] += bh.value().data()[c];
  }
  kernels::TanhInPlace(ht.data(), n * hidden);

  // out = h + z * (h~ - h)
  Matrix out(n, hidden);
  for (size_t r = 0; r < n; ++r) {
    const Scalar* gates = rz_data + r * 2 * hidden;
    const Scalar* hrow = hv.data() + r * hidden;
    const Scalar* htrow = ht.data() + r * hidden;
    Scalar* orow = out.data() + r * hidden;
    for (size_t c = 0; c < hidden; ++c) {
      orow[c] = hrow[c] + gates[hidden + c] * (htrow[c] - hrow[c]);
    }
  }
  AddFlops(static_cast<int64_t>(6 * n * (hidden + in_dim) * hidden +
                                14 * n * hidden));
  if (!RecordsGradient(x, h_prev, wr, br, wz, bz, wh, bh)) {
    return Tensor::Constant(std::move(out));
  }

  // The backward keeps the activations: r and z packed in rz, h~ in ht,
  // and r*h in rh.
  return Tensor::MakeOp(
      std::move(out), {x, h_prev, wr, br, wz, bz, wh, bh},
      [x, h_prev, wr, br, wz, bz, wh, bh, rz = std::move(rz),
       rh = std::move(rh), ht = std::move(ht)](TensorNode& self) {
        const size_t rows = self.grad.rows();
        const size_t h_dim = self.grad.cols();
        const size_t i_dim = x.cols();
        const size_t x_off = h_dim * h_dim;
        const Matrix& hv2 = h_prev.value();
        const Matrix& xv2 = x.value();
        const Scalar* rz_d = rz.data();
        const Scalar* ht_d = ht.data();

        // Gate-input gradients, derived in closed form from the cached
        // activations (r, z packed in rz; h~ in ht; r*h in rh):
        //   a_h = g*z * (1 - h~^2)           (pre-activation of h~)
        //   drh = a_h W_h[h]^T
        //   a_r = drh*h * r(1-r)             (pre-activation of r)
        //   a_z = g*(h~ - h) * z(1-z)        (pre-activation of z)
        Matrix a_h(rows, h_dim);
        for (size_t r = 0; r < rows; ++r) {
          const Scalar* gates = rz_d + r * 2 * h_dim;
          const Scalar* htrow = ht_d + r * h_dim;
          const Scalar* grow = self.grad.data() + r * h_dim;
          Scalar* arow = a_h.data() + r * h_dim;
          for (size_t c = 0; c < h_dim; ++c) {
            arow[c] = grow[c] * gates[h_dim + c] *
                      (Scalar{1} - htrow[c] * htrow[c]);
          }
        }
        Matrix drh(rows, h_dim);
        kernels::GemmSmallTB(a_h.data(), wh.value().data(), drh.data(), rows,
                             h_dim, h_dim);
        Matrix a_r(rows, h_dim);
        Matrix a_z(rows, h_dim);
        for (size_t r = 0; r < rows; ++r) {
          const Scalar* gates = rz_d + r * 2 * h_dim;
          const Scalar* htrow = ht_d + r * h_dim;
          const Scalar* grow = self.grad.data() + r * h_dim;
          const Scalar* hrow = hv2.data() + r * h_dim;
          const Scalar* drhrow = drh.data() + r * h_dim;
          Scalar* arrow = a_r.data() + r * h_dim;
          Scalar* azrow = a_z.data() + r * h_dim;
          for (size_t c = 0; c < h_dim; ++c) {
            const Scalar rv = gates[c];
            const Scalar zv = gates[h_dim + c];
            arrow[c] = drhrow[c] * hrow[c] * rv * (Scalar{1} - rv);
            azrow[c] = grow[c] * (htrow[c] - hrow[c]) * zv * (Scalar{1} - zv);
          }
        }

        if (wh.requires_grad()) {
          Matrix& whg = wh.grad();
          kernels::GemmSmallTA(rh.data(), a_h.data(), whg.data(), h_dim,
                               rows, h_dim);
          kernels::GemmSmallTA(xv2.data(), a_h.data(), whg.data() + x_off,
                               i_dim, rows, h_dim);
        }
        if (wr.requires_grad()) {
          Matrix& wrg = wr.grad();
          kernels::GemmSmallTA(hv2.data(), a_r.data(), wrg.data(), h_dim,
                               rows, h_dim);
          kernels::GemmSmallTA(xv2.data(), a_r.data(), wrg.data() + x_off,
                               i_dim, rows, h_dim);
        }
        if (wz.requires_grad()) {
          Matrix& wzg = wz.grad();
          kernels::GemmSmallTA(hv2.data(), a_z.data(), wzg.data(), h_dim,
                               rows, h_dim);
          kernels::GemmSmallTA(xv2.data(), a_z.data(), wzg.data() + x_off,
                               i_dim, rows, h_dim);
        }
        const auto col_sum_into = [rows, h_dim](const Matrix& src,
                                                Matrix* dst) {
          Scalar* d = dst->data();
          for (size_t r = 0; r < rows; ++r) {
            const Scalar* srow = src.data() + r * h_dim;
            for (size_t c = 0; c < h_dim; ++c) d[c] += srow[c];
          }
        };
        if (bh.requires_grad()) col_sum_into(a_h, &bh.grad());
        if (br.requires_grad()) col_sum_into(a_r, &br.grad());
        if (bz.requires_grad()) col_sum_into(a_z, &bz.grad());

        if (h_prev.requires_grad()) {
          Matrix& hg = h_prev.grad();
          for (size_t r = 0; r < rows; ++r) {
            const Scalar* gates = rz_d + r * 2 * h_dim;
            const Scalar* grow = self.grad.data() + r * h_dim;
            const Scalar* drhrow = drh.data() + r * h_dim;
            Scalar* hgrow = hg.data() + r * h_dim;
            for (size_t c = 0; c < h_dim; ++c) {
              // Direct path g*(1-z) plus the reset-gated path drh*r.
              hgrow[c] += grow[c] * (Scalar{1} - gates[h_dim + c]) +
                          drhrow[c] * gates[c];
            }
          }
          kernels::GemmSmallTB(a_r.data(), wr.value().data(), hg.data(), rows,
                               h_dim, h_dim);
          kernels::GemmSmallTB(a_z.data(), wz.value().data(), hg.data(), rows,
                               h_dim, h_dim);
        }
        if (x.requires_grad()) {
          Matrix& xg = x.grad();
          kernels::GemmSmallTB(a_h.data(), wh.value().data() + x_off,
                               xg.data(), rows, h_dim, i_dim);
          kernels::GemmSmallTB(a_r.data(), wr.value().data() + x_off,
                               xg.data(), rows, h_dim, i_dim);
          kernels::GemmSmallTB(a_z.data(), wz.value().data() + x_off,
                               xg.data(), rows, h_dim, i_dim);
        }
        AddFlops(static_cast<int64_t>(12 * rows * (h_dim + i_dim) * h_dim +
                                      20 * rows * h_dim));
      });
}

Tensor Im2RowCausal(const Tensor& x, size_t kernel) {
  LIGHTTR_CHECK_GE(kernel, 1u);
  const size_t steps = x.rows();
  const size_t channels = x.cols();
  Matrix out(steps, kernel * channels);
  for (size_t t = 0; t < steps; ++t) {
    for (size_t j = 0; j < kernel; ++j) {
      if (t + j + 1 < kernel) continue;  // zero padding before step 0
      const size_t src = t + j + 1 - kernel;
      for (size_t c = 0; c < channels; ++c) {
        out(t, j * channels + c) = x.value()(src, c);
      }
    }
  }
  if (!RecordsGradient(x)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {x}, [x, kernel](TensorNode& self) {
    if (!x.requires_grad()) return;
    Matrix& xg = x.grad();
    const size_t grad_channels = xg.cols();
    for (size_t t = 0; t < xg.rows(); ++t) {
      for (size_t j = 0; j < kernel; ++j) {
        if (t + j + 1 < kernel) continue;
        const size_t src = t + j + 1 - kernel;
        for (size_t c = 0; c < grad_channels; ++c) {
          xg(src, c) += self.grad(t, j * grad_channels + c);
        }
      }
    }
  });
}

Tensor CandidateLogits(const Tensor& h, const Tensor& w, const Tensor& b,
                       const std::vector<int>& candidates) {
  Matrix out(1, candidates.size());
  CandidateLogitsInto(h.value(), w.value(), b.value(), candidates, &out);
  if (!RecordsGradient(h, w, b)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(
      std::move(out), {h, w, b}, [h, w, b, candidates](TensorNode& self) {
        CandidateLogitsBackward(h, w, b, candidates, self.grad);
      });
}

MtHeadOutput MtHeadStep(const Tensor& state, const MtHeadWeights& weights,
                        const std::vector<int>& candidates,
                        const std::vector<Scalar>& log_mask, int target_index,
                        int conditioning_segment) {
  const MtHeadWeights& w = weights;
  const size_t hidden = state.cols();
  const size_t embed = w.emb_table.cols();
  const size_t count = candidates.size();
  LIGHTTR_CHECK_EQ(state.rows(), 1u);
  LIGHTTR_CHECK_EQ(log_mask.size(), count);
  LIGHTTR_CHECK_LT(target_index, static_cast<int>(count));
  LIGHTTR_CHECK_EQ(w.proj_w.rows(), embed);
  LIGHTTR_CHECK_EQ(w.ratio_w.rows(), hidden + embed);
  LIGHTTR_CHECK_EQ(w.ratio_w.cols(), 1u);
  const bool records =
      RecordsGradient(state, w.dense_w, w.dense_b, w.seg_w, w.seg_b,
                      w.emb_table, w.proj_w, w.proj_b, w.ratio_w, w.ratio_b);
  if (records) {
    for (const Tensor* t : {&w.dense_w, &w.dense_b, &w.seg_w, &w.seg_b,
                            &w.emb_table, &w.proj_w, &w.proj_b, &w.ratio_w,
                            &w.ratio_b}) {
      LIGHTTR_CHECK(t->requires_grad());
    }
  }

  // h_d: Dense (MatMul, then AddRowBroadcast).
  Matrix h_d = MatMulValues(state.value(), w.dense_w.value());
  AddBiasToRows(w.dense_b.value(), &h_d);
  AddFlops(Elems(h_d));

  // Candidate logits; the prediction is their argmax under the mask.
  Matrix logits(1, count);
  CandidateLogitsInto(h_d, w.seg_w.value(), w.seg_b.value(), candidates,
                      &logits);
  size_t best = 0;
  for (size_t k = 1; k < count; ++k) {
    if (logits(0, k) + log_mask[k] > logits(0, best) + log_mask[best]) {
      best = k;
    }
  }
  MtHeadOutput result;
  result.predicted_segment = candidates[best];

  // Masked cross-entropy; its probabilities only when the backward needs
  // them.
  Matrix probs;
  Matrix ce;
  if (target_index >= 0) {
    if (records) probs = Matrix(1, count);
    ce = Matrix::Full(1, 1,
                      SoftmaxCrossEntropyValue(
                          logits, std::span<const int>(&target_index, 1),
                          log_mask.data(), records ? &probs : nullptr));
  }

  // Ratio branch: EmbeddingLookup, Dense, Add, Relu, ConcatCols, Dense,
  // Sigmoid.
  const int condition = conditioning_segment >= 0 ? conditioning_segment
                                                  : result.predicted_segment;
  LIGHTTR_CHECK_GE(condition, 0);
  LIGHTTR_CHECK_LT(static_cast<size_t>(condition), w.emb_table.rows());
  const auto cond = static_cast<size_t>(condition);
  Matrix e(1, embed);
  for (size_t c = 0; c < embed; ++c) e(0, c) = w.emb_table.value()(cond, c);
  Matrix h_e = h_d;
  {
    Matrix proj = MatMulValues(e, w.proj_w.value());
    AddBiasToRows(w.proj_b.value(), &proj);
    AddFlops(Elems(proj));
    h_e.AddInPlace(proj);
    AddFlops(Elems(h_e));
  }
  for (size_t i = 0; i < h_e.size(); ++i) {
    if (h_e.data()[i] < Scalar{0}) h_e.data()[i] = Scalar{0};
  }
  AddFlops(Elems(h_e));
  Matrix cat(1, hidden + embed);
  for (size_t c = 0; c < hidden; ++c) cat(0, c) = h_e(0, c);
  for (size_t c = 0; c < embed; ++c) cat(0, hidden + c) = e(0, c);
  Matrix ratio = MatMulValues(cat, w.ratio_w.value());
  AddBiasToRows(w.ratio_b.value(), &ratio);
  AddFlops(Elems(ratio));
  kernels::SigmoidInPlace(ratio.data(), ratio.size());
  AddFlops(4 * Elems(ratio));

  if (!records) {
    if (target_index >= 0) result.ce_loss = Tensor::Constant(std::move(ce));
    result.ratio = Tensor::Constant(std::move(ratio));
    return result;
  }

  // Three nodes, h_d first. The backward adds each intermediate
  // gradient the chain kept on a node of its own into a zero-filled
  // buffer, as EnsureGrad then += did, so signed zeros and rounding
  // match. Where the chain only copied a gradient (0 + g into the next
  // node's fresh grad) the copy is skipped: a buffer filled by plain +=
  // from zero never holds -0, so 0 + g is g.
  const Tensor h_node = Tensor::MakeOp(
      std::move(h_d), {state, w.dense_w, w.dense_b},
      [state, dw = w.dense_w, db = w.dense_b](TensorNode& self) {
        // Dense: the bias, then the MatMul.
        AddColumnSums(self.grad, &db.grad());
        if (state.requires_grad()) {
          MatMulTransBAccumulate(self.grad, dw.value(), &state.grad());
        }
        MatMulTransAAccumulate(state.value(), self.grad, &dw.grad());
      });

  if (target_index >= 0) {
    result.ce_loss = Tensor::MakeOp(
        std::move(ce), {h_node, w.seg_w, w.seg_b},
        [h_node, sw = w.seg_w, sb = w.seg_b, probs = std::move(probs),
         candidates, target = target_index](TensorNode& self) {
          // SoftmaxCrossEntropy: the logits' grad. Then CandidateLogits
          // adds h_d's second share, in candidate order.
          Matrix g_logits(1, probs.cols());
          SoftmaxCrossEntropyGrad(probs, std::span<const int>(&target, 1),
                                  self.grad(0, 0), &g_logits);
          CandidateLogitsBackward(h_node, sw, sb, candidates, g_logits);
        });
  }

  // The ratio node keeps [h_e | e] (the ReLU mask, and the input of the
  // ratio weights' grad) and e (the projection weights' grad).
  result.ratio = Tensor::MakeOp(
      std::move(ratio),
      {h_node, w.emb_table, w.proj_w, w.proj_b, w.ratio_w, w.ratio_b},
      [h_node, table = w.emb_table, pw = w.proj_w, pb = w.proj_b,
       rw = w.ratio_w, rb = w.ratio_b, cat = std::move(cat),
       e = std::move(e), cond](TensorNode& self) {
        const size_t h_dim = h_node.cols();
        const size_t e_dim = e.cols();
        // Sigmoid: the pre-activation's grad.
        Matrix g_pre(1, 1);
        for (size_t i = 0; i < self.grad.size(); ++i) {
          const Scalar y = self.value.data()[i];
          g_pre.data()[i] += self.grad.data()[i] * y * (Scalar{1} - y);
        }
        AddFlops(3 * static_cast<int64_t>(self.grad.size()));
        // Dense: the bias, then the MatMul (the concat's grad, which a
        // fused kernel may leave at -0, and the weights).
        AddColumnSums(g_pre, &rb.grad());
        Matrix g_cat(1, h_dim + e_dim);
        MatMulTransBAccumulate(g_pre, rw.value(), &g_cat);
        MatMulTransAAccumulate(cat, g_pre, &rw.grad());
        // ConcatCols, then Relu: the sum's grad where h_e > 0; and e's
        // first share.
        Matrix g_sum(1, h_dim);
        for (size_t i = 0; i < h_dim; ++i) {
          if (cat(0, i) > Scalar{0}) g_sum(0, i) += g_cat(0, i);
        }
        Matrix g_e(1, e_dim);
        for (size_t c = 0; c < e_dim; ++c) g_e(0, c) += g_cat(0, h_dim + c);
        // Add: h_d's first share (CandidateLogits adds the second). Then
        // the projection's Dense: the bias, then the MatMul (e's second
        // share, and the weights).
        h_node.grad().AddInPlace(g_sum);
        AddColumnSums(g_sum, &pb.grad());
        MatMulTransBAccumulate(g_sum, pw.value(), &g_e);
        MatMulTransAAccumulate(e, g_sum, &pw.grad());
        // EmbeddingLookup: the table row.
        Matrix& tg = table.grad();
        for (size_t c = 0; c < e_dim; ++c) tg(cond, c) += g_e(0, c);
      });
  return result;
}

}  // namespace lighttr::nn
