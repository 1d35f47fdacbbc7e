/**
 * @file
 * Host-double training (SGD + backprop through conv/pool/dense) and
 * host-side inference for the MNIST-like classifier.
 */

#include "nn/mnistnet.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace mparch::nn {

namespace {

/** Forward activations kept for backprop. */
struct ForwardState
{
    // conv pre-activation, full resolution
    std::array<double, kConvFilters * kConvOut * kConvOut> convPre{};
    // pooled (post-ReLU, post-pool) activations and argmax routing
    std::array<double, kFlat> pooled{};
    std::array<std::size_t, kFlat> poolArg{};
    std::array<double, kHidden> hiddenPre{};
    std::array<double, kHidden> hidden{};
    std::array<double, kDigitClasses> logits{};
};

void
forward(const MnistParams &p,
        const std::array<double, kDigitSize * kDigitSize> &px,
        ForwardState &fs)
{
    for (std::size_t f = 0; f < kConvFilters; ++f) {
        for (std::size_t y = 0; y < kConvOut; ++y) {
            for (std::size_t x = 0; x < kConvOut; ++x) {
                double acc = p.convB[f];
                for (std::size_t ky = 0; ky < kKernel; ++ky)
                    for (std::size_t kx = 0; kx < kKernel; ++kx)
                        acc += p.convW[(f * kKernel + ky) * kKernel +
                                       kx] *
                               px[(y + ky) * kDigitSize + x + kx];
                fs.convPre[(f * kConvOut + y) * kConvOut + x] = acc;
            }
        }
        for (std::size_t py = 0; py < kPoolOut; ++py) {
            for (std::size_t qx = 0; qx < kPoolOut; ++qx) {
                double best = -1e300;
                std::size_t arg = 0;
                for (std::size_t wy = 0; wy < 2; ++wy) {
                    for (std::size_t wx = 0; wx < 2; ++wx) {
                        const std::size_t idx =
                            (f * kConvOut + 2 * py + wy) * kConvOut +
                            2 * qx + wx;
                        const double v =
                            std::max(0.0, fs.convPre[idx]);
                        if (v > best) {
                            best = v;
                            arg = idx;
                        }
                    }
                }
                const std::size_t o =
                    (f * kPoolOut + py) * kPoolOut + qx;
                fs.pooled[o] = best;
                fs.poolArg[o] = arg;
            }
        }
    }
    for (std::size_t h = 0; h < kHidden; ++h) {
        double acc = p.fc1B[h];
        for (std::size_t i = 0; i < kFlat; ++i)
            acc += p.fc1W[h * kFlat + i] * fs.pooled[i];
        fs.hiddenPre[h] = acc;
        fs.hidden[h] = std::max(0.0, acc);
    }
    for (std::size_t c = 0; c < kDigitClasses; ++c) {
        double acc = p.fc2B[c];
        for (std::size_t h = 0; h < kHidden; ++h)
            acc += p.fc2W[c * kHidden + h] * fs.hidden[h];
        fs.logits[c] = acc;
    }
}

/** One SGD step on one sample; returns the cross-entropy loss. */
double
step(MnistParams &p,
     const std::array<double, kDigitSize * kDigitSize> &px,
     std::size_t label, double lr)
{
    ForwardState fs;
    forward(p, px, fs);

    // softmax + cross entropy
    double max_logit = fs.logits[0];
    for (double v : fs.logits)
        max_logit = std::max(max_logit, v);
    double denom = 0.0;
    std::array<double, kDigitClasses> prob{};
    for (std::size_t c = 0; c < kDigitClasses; ++c) {
        prob[c] = std::exp(fs.logits[c] - max_logit);
        denom += prob[c];
    }
    for (auto &v : prob)
        v /= denom;
    const double loss = -std::log(std::max(prob[label], 1e-12));

    // dL/dlogit
    std::array<double, kDigitClasses> dlogit = prob;
    dlogit[label] -= 1.0;

    // fc2 backward
    std::array<double, kHidden> dhidden{};
    for (std::size_t c = 0; c < kDigitClasses; ++c) {
        for (std::size_t h = 0; h < kHidden; ++h) {
            dhidden[h] += dlogit[c] * p.fc2W[c * kHidden + h];
            p.fc2W[c * kHidden + h] -= lr * dlogit[c] * fs.hidden[h];
        }
        p.fc2B[c] -= lr * dlogit[c];
    }

    // fc1 backward (through ReLU)
    std::array<double, kFlat> dpooled{};
    for (std::size_t h = 0; h < kHidden; ++h) {
        if (fs.hiddenPre[h] <= 0.0)
            continue;
        const double dh = dhidden[h];
        for (std::size_t i = 0; i < kFlat; ++i) {
            dpooled[i] += dh * p.fc1W[h * kFlat + i];
            p.fc1W[h * kFlat + i] -= lr * dh * fs.pooled[i];
        }
        p.fc1B[h] -= lr * dh;
    }

    // pool + ReLU + conv backward
    for (std::size_t f = 0; f < kConvFilters; ++f) {
        for (std::size_t o = 0; o < kPoolOut * kPoolOut; ++o) {
            const std::size_t flat_idx =
                f * kPoolOut * kPoolOut + o;
            const double grad = dpooled[flat_idx];
            if (grad == 0.0)
                continue;
            const std::size_t arg = fs.poolArg[flat_idx];
            if (fs.convPre[arg] <= 0.0)
                continue;  // ReLU gate
            const std::size_t in_f = arg / (kConvOut * kConvOut);
            const std::size_t rem = arg % (kConvOut * kConvOut);
            const std::size_t y = rem / kConvOut;
            const std::size_t x = rem % kConvOut;
            MPARCH_ASSERT(in_f == f, "pool routing crossed filters");
            for (std::size_t ky = 0; ky < kKernel; ++ky)
                for (std::size_t kx = 0; kx < kKernel; ++kx)
                    p.convW[(f * kKernel + ky) * kKernel + kx] -=
                        lr * grad *
                        px[(y + ky) * kDigitSize + x + kx];
            p.convB[f] -= lr * grad;
        }
    }
    return loss;
}

} // namespace

MnistParams
trainMnist(const TrainConfig &config)
{
    MnistParams p;
    Rng rng(config.seed);
    auto init = [&rng](std::vector<double> &w, std::size_t n,
                       double scale) {
        w.resize(n);
        for (auto &v : w)
            v = rng.normal(0.0, scale);
    };
    init(p.convW, kConvFilters * kKernel * kKernel, 0.35);
    init(p.convB, kConvFilters, 0.01);
    init(p.fc1W, kHidden * kFlat, std::sqrt(2.0 / kFlat));
    init(p.fc1B, kHidden, 0.01);
    init(p.fc2W, kDigitClasses * kHidden, std::sqrt(2.0 / kHidden));
    init(p.fc2B, kDigitClasses, 0.01);

    // Fixed training set, reshuffled view via fresh index draws.
    DigitGenerator gen(config.seed + 1, config.noise);
    std::vector<DigitSample> train_set(config.samples);
    for (auto &sample : train_set)
        sample = gen.next();

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        const double lr = config.learningRate /
                          (1.0 + 0.2 * static_cast<double>(epoch));
        for (std::size_t i = 0; i < train_set.size(); ++i) {
            const auto &sample =
                train_set[rng.below(train_set.size())];
            step(p, sample.pixels, sample.label, lr);
        }
    }
    return p;
}

std::array<double, kDigitClasses>
inferHost(const MnistParams &params,
          const std::array<double, kDigitSize * kDigitSize> &pixels)
{
    ForwardState fs;
    forward(params, pixels, fs);
    return fs.logits;
}

double
evaluateHostAccuracy(const MnistParams &params, std::size_t count,
                     std::uint64_t seed, double noise)
{
    DigitGenerator gen(seed, noise);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const DigitSample sample = gen.next();
        const auto logits = inferHost(params, sample.pixels);
        const std::size_t pred = static_cast<std::size_t>(
            std::max_element(logits.begin(), logits.end()) -
            logits.begin());
        correct += pred == sample.label;
    }
    return static_cast<double>(correct) / static_cast<double>(count);
}

} // namespace mparch::nn
