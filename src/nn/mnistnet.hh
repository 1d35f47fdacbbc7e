/**
 * @file
 * MNIST-like convolutional classifier.
 *
 * Topology (LeNet-flavoured, scaled to the 12x12 synthetic digit
 * task): conv 6@3x3 + ReLU -> maxpool 2x2 -> dense 150->32 + ReLU ->
 * dense 32->10 logits. The network is trained once in host double
 * precision by SGD with softmax cross-entropy, and the trained
 * weights are committed as data (pretrainedMnist(), written by
 * tools/mparch_mnist_weights). They are then *converted* (never
 * retrained) to half/single/double softfloat for the reliability
 * experiments — the paper's protocol for isolating mixed-precision
 * effects (Section 3.1).
 */

#ifndef MPARCH_NN_MNISTNET_HH
#define MPARCH_NN_MNISTNET_HH

#include <array>
#include <cstdint>
#include <vector>

#include "fp/host.hh"
#include "nn/digits.hh"

namespace mparch::nn {

/** Topology constants. */
inline constexpr std::size_t kConvFilters = 6;
inline constexpr std::size_t kKernel = 3;
inline constexpr std::size_t kConvOut = kDigitSize - kKernel + 1;  // 10
inline constexpr std::size_t kPoolOut = kConvOut / 2;              // 5
inline constexpr std::size_t kFlat =
    kConvFilters * kPoolOut * kPoolOut;                            // 150
inline constexpr std::size_t kHidden = 32;

/** Trained parameters, in host double precision. */
struct MnistParams
{
    std::vector<double> convW;  ///< [filters][ky][kx]
    std::vector<double> convB;  ///< [filters]
    std::vector<double> fc1W;   ///< [hidden][flat]
    std::vector<double> fc1B;   ///< [hidden]
    std::vector<double> fc2W;   ///< [classes][hidden]
    std::vector<double> fc2B;   ///< [classes]
};

/** SGD training configuration. */
struct TrainConfig
{
    std::uint64_t seed = 2019;
    std::size_t samples = 1500;  ///< training set size
    std::size_t epochs = 15;
    double learningRate = 0.05;
    double noise = 0.15;  ///< dataset pixel noise
};

/**
 * Train the classifier with backpropagation (conv included) on the
 * synthetic digit task. Deterministic for a given config.
 */
MnistParams trainMnist(const TrainConfig &config = {});

/** Host-double inference: logits for one image. */
std::array<double, kDigitClasses>
inferHost(const MnistParams &params,
          const std::array<double, kDigitSize * kDigitSize> &pixels);

/** Classification accuracy over @p count fresh samples. */
double evaluateHostAccuracy(const MnistParams &params,
                            std::size_t count, std::uint64_t seed,
                            double noise = 0.15);

/**
 * The classifier at softfloat precision P, weights converted from a
 * trained MnistParams.
 */
template <fp::Precision P>
class MnistNet
{
  public:
    using Value = fp::Fp<P>;

    /** Convert trained parameters into precision P. */
    explicit MnistNet(const MnistParams &params)
    {
        auto load = [](std::vector<Value> &dst,
                       const std::vector<double> &src) {
            dst.resize(src.size());
            for (std::size_t i = 0; i < src.size(); ++i)
                dst[i] = Value::fromDouble(src[i]);
        };
        load(convW_, params.convW);
        load(convB_, params.convB);
        load(fc1W_, params.fc1W);
        load(fc1B_, params.fc1B);
        load(fc2W_, params.fc2W);
        load(fc2B_, params.fc2B);
    }

    /**
     * Forward pass entirely in softfloat precision P. Every dot
     * product (a conv window, a dense neuron) is one fp::fmaChain of
     * weight times input onto the bias, in row-major order.
     *
     * @param pixels Image encoded at precision P (row-major 12x12).
     * @param logits Output array of kDigitClasses logits.
     */
    void
    infer(const std::vector<Value> &pixels,
          std::array<Value, kDigitClasses> &logits) const
    {
        // conv + ReLU + 2x2 maxpool
        std::array<Value, kFlat> flat{};
        std::array<Value, kKernel * kKernel> window;
        for (std::size_t filt = 0; filt < kConvFilters; ++filt) {
            const Value *filter = &convW_[filt * window.size()];
            for (std::size_t py = 0; py < kPoolOut; ++py) {
                for (std::size_t px = 0; px < kPoolOut; ++px) {
                    Value best{};
                    bool first = true;
                    for (std::size_t wy = 0; wy < 2; ++wy) {
                        for (std::size_t wx = 0; wx < 2; ++wx) {
                            const std::size_t oy = 2 * py + wy;
                            const std::size_t ox = 2 * px + wx;
                            for (std::size_t ky = 0; ky < kKernel; ++ky)
                                for (std::size_t kx = 0; kx < kKernel;
                                     ++kx)
                                    window[ky * kKernel + kx] =
                                        pixels[(oy + ky) * kDigitSize +
                                               ox + kx];
                            Value acc =
                                fp::fmaChain(filter, 1, window.data(), 1,
                                             window.size(), convB_[filt]);
                            if (acc < Value{})  // ReLU
                                acc = Value{};
                            if (first || best < acc) {
                                best = acc;
                                first = false;
                            }
                        }
                    }
                    flat[(filt * kPoolOut + py) * kPoolOut + px] =
                        best;
                }
            }
        }

        // dense 150 -> 32 + ReLU
        std::array<Value, kHidden> hidden{};
        for (std::size_t h = 0; h < kHidden; ++h) {
            const Value acc = fp::fmaChain(&fc1W_[h * kFlat], 1,
                                           flat.data(), 1, kFlat, fc1B_[h]);
            hidden[h] = acc < Value{} ? Value{} : acc;
        }

        // dense 32 -> 10 logits
        for (std::size_t c = 0; c < kDigitClasses; ++c)
            logits[c] = fp::fmaChain(&fc2W_[c * kHidden], 1, hidden.data(),
                                     1, kHidden, fc2B_[c]);
    }

    /** Weight buffers, exposed for fault injection. */
    std::vector<Value> &convW() { return convW_; }
    std::vector<Value> &convB() { return convB_; }
    std::vector<Value> &fc1W() { return fc1W_; }
    std::vector<Value> &fc1B() { return fc1B_; }
    std::vector<Value> &fc2W() { return fc2W_; }
    std::vector<Value> &fc2B() { return fc2B_; }

  private:
    std::vector<Value> convW_, convB_, fc1W_, fc1B_, fc2W_, fc2B_;
};

/** Index of the largest logit (ties to the lower index). */
template <fp::Precision P>
std::size_t
argmaxLogits(const std::array<fp::Fp<P>, kDigitClasses> &logits)
{
    std::size_t best = 0;
    for (std::size_t c = 1; c < kDigitClasses; ++c)
        if (logits[best] < logits[c])
            best = c;
    return best;
}

} // namespace mparch::nn

#endif // MPARCH_NN_MNISTNET_HH
