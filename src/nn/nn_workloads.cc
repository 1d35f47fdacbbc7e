#include "nn/nn_workloads.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "nn/digits.hh"
#include "nn/mnistnet.hh"
#include "nn/yolite.hh"

namespace mparch::nn {

using workloads::BufferView;
using workloads::ExecutionEnv;
using workloads::KernelDesc;
using workloads::makeBufferView;
using workloads::SdcSeverity;
using workloads::Workload;
using workloads::WorkloadPtr;

namespace {

/** MNIST-like classifier under injection. */
template <fp::Precision P>
class MnistWorkload : public Workload
{
  public:
    using Value = fp::Fp<P>;

    explicit MnistWorkload(double scale)
        : pristine_(std::make_shared<const MnistNet<P>>(pretrainedMnist())),
          net_(*pristine_)
    {
        batch_ = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(4.0 * scale)));
        pixels_.resize(batch_ * kDigitSize * kDigitSize);
        logits_.resize(batch_ * kDigitClasses);
    }

    std::string name() const override { return "mnist"; }

    fp::Precision precision() const override { return P; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<MnistWorkload<P>>(*this);
    }

    /** Images per execution. */
    std::size_t batch() const { return batch_; }

    void
    reset(std::uint64_t input_seed) override
    {
        // Weights may have been corrupted by a previous trial:
        // reload them (the FPGA/GPU reloads its binary per run).
        net_ = *pristine_;
        DigitGenerator gen(input_seed);
        for (std::size_t b = 0; b < batch_; ++b) {
            const DigitSample sample = gen.next();
            for (std::size_t i = 0; i < sample.pixels.size(); ++i)
                pixels_[b * sample.pixels.size() + i] =
                    Value::fromDouble(sample.pixels[i]);
        }
        std::fill(logits_.begin(), logits_.end(), Value{});
    }

    void
    execute(ExecutionEnv &env) override
    {
        const std::size_t stride = kDigitSize * kDigitSize;
        std::vector<Value> image(stride);
        std::array<Value, kDigitClasses> out{};
        for (std::size_t b = 0; b < batch_; ++b) {
            env.tick();
            if (env.aborted())
                return;
            std::copy_n(pixels_.begin() + b * stride, stride,
                        image.begin());
            net_.infer(image, out);
            std::copy(out.begin(), out.end(),
                      logits_.begin() + b * kDigitClasses);
        }
    }

    std::vector<BufferView>
    buffers() override
    {
        return {makeBufferView("convW", net_.convW()),
                makeBufferView("convB", net_.convB()),
                makeBufferView("fc1W", net_.fc1W()),
                makeBufferView("fc1B", net_.fc1B()),
                makeBufferView("fc2W", net_.fc2W()),
                makeBufferView("fc2B", net_.fc2B()),
                makeBufferView("pixels", pixels_),
                makeBufferView("logits", logits_)};
    }

    BufferView
    output() override
    {
        return makeBufferView("logits", logits_);
    }

    KernelDesc
    desc() const override
    {
        KernelDesc d;
        d.liveValues = 6;
        d.inputStreams = 3;
        d.arithmeticIntensity = 4.0;
        d.usesTranscendental = false;
        d.regularAccess = true;
        d.branchDensity = 0.12;  // CNNs: layer dispatch, pooling
        return d;
    }

    std::vector<workloads::Engine>
    engines(const fp::FpContext &golden_ops) const override
    {
        (void)golden_ops;
        // Per-image FMA schedule: conv engine first, then the two
        // dense layers on a separate fully-connected engine. A
        // spatial design keeps these physically apart, so a broken
        // conv operator can only corrupt conv arithmetic — whose
        // errors must then survive ReLU, max-pooling and dilution
        // into 150-term dot products, the CNN masking the paper
        // credits for MNIST's low FIT (Section 4.1).
        constexpr std::uint64_t conv_ops =
            kConvFilters * kPoolOut * kPoolOut * 4 * kKernel * kKernel;
        constexpr std::uint64_t dense_ops =
            kHidden * kFlat + kDigitClasses * kHidden;
        constexpr std::uint64_t period = conv_ops + dense_ops;
        workloads::Engine conv{"conv", fp::OpKind::Fma, period, 0,
                               conv_ops};
        workloads::Engine dense{"dense", fp::OpKind::Fma, period,
                                conv_ops, period};
        return {conv, dense};
    }

    SdcSeverity
    classifySdc(const std::vector<std::uint64_t> &golden_bits) override
    {
        for (std::size_t b = 0; b < batch_; ++b) {
            std::array<Value, kDigitClasses> now{}, gold{};
            for (std::size_t c = 0; c < kDigitClasses; ++c) {
                now[c] = logits_[b * kDigitClasses + c];
                gold[c] = Value::fromBits(
                    golden_bits[b * kDigitClasses + c]);
            }
            if (argmaxLogits<P>(now) != argmaxLogits<P>(gold))
                return SdcSeverity::CriticalChange;
        }
        return SdcSeverity::Tolerable;
    }

  private:
    /** The quantised weights as loaded; clones share them. */
    std::shared_ptr<const MnistNet<P>> pristine_;
    MnistNet<P> net_;
    std::size_t batch_;
    std::vector<Value> pixels_;
    std::vector<Value> logits_;
};

/** YOLite detector under injection. */
template <fp::Precision P>
class YoliteWorkload : public Workload
{
  public:
    using Value = fp::Fp<P>;

    explicit YoliteWorkload(double scale)
        : pristine_(std::make_shared<const YoliteNet<P>>()), net_(*pristine_)
    {
        batch_ = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(2.0 * scale)));
        pixels_.resize(batch_ * kSceneSize * kSceneSize);
        out_.resize(batch_ * kYoliteOut);
        threshold_ = yoliteThreshold();
    }

    std::string name() const override { return "yolite"; }

    fp::Precision precision() const override { return P; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<YoliteWorkload<P>>(*this);
    }

    /** Scenes per execution. */
    std::size_t batch() const { return batch_; }

    void
    reset(std::uint64_t input_seed) override
    {
        net_ = *pristine_;  // reload weights
        SceneGenerator gen(input_seed);
        for (std::size_t b = 0; b < batch_; ++b) {
            const Scene scene = gen.next();
            for (std::size_t i = 0; i < scene.pixels.size(); ++i)
                pixels_[b * scene.pixels.size() + i] =
                    Value::fromDouble(scene.pixels[i]);
        }
        std::fill(out_.begin(), out_.end(), Value{});
    }

    void
    execute(ExecutionEnv &env) override
    {
        const std::size_t stride = kSceneSize * kSceneSize;
        std::vector<Value> image(stride);
        std::vector<Value> det;
        for (std::size_t b = 0; b < batch_; ++b) {
            env.tick();
            if (env.aborted())
                return;
            std::copy_n(pixels_.begin() + b * stride, stride,
                        image.begin());
            net_.detect(image, det);
            std::copy(det.begin(), det.end(),
                      out_.begin() + b * kYoliteOut);
        }
    }

    std::vector<BufferView>
    buffers() override
    {
        return {makeBufferView("filters", net_.filters()),
                makeBufferView("pixels", pixels_),
                makeBufferView("out", out_)};
    }

    BufferView output() override { return makeBufferView("out", out_); }

    KernelDesc
    desc() const override
    {
        KernelDesc d;
        d.liveValues = 6;
        d.inputStreams = 2;
        d.arithmeticIntensity = 6.0;
        d.usesTranscendental = false;
        d.regularAccess = true;
        // Paper Section 6.1: object-detection CNNs have a much
        // higher DUE probability than arithmetic codes.
        d.branchDensity = 0.25;
        return d;
    }

    SdcSeverity
    classifySdc(const std::vector<std::uint64_t> &golden_bits) override
    {
        SdcSeverity worst = SdcSeverity::Tolerable;
        for (std::size_t b = 0; b < batch_; ++b) {
            const SdcSeverity s = classifyScene(b, golden_bits);
            if (static_cast<int>(s) > static_cast<int>(worst))
                worst = s;
        }
        return worst;
    }

  private:
    SdcSeverity
    classifyScene(std::size_t b,
                  const std::vector<std::uint64_t> &golden_bits) const
    {
        std::array<double, kYoliteOut> now{}, gold{};
        const fp::Format f = fp::formatOf(P);
        for (std::size_t i = 0; i < kYoliteOut; ++i) {
            now[i] = out_[b * kYoliteOut + i].toDouble();
            gold[i] =
                fp::fpToDouble(f, golden_bits[b * kYoliteOut + i]);
        }
        const auto dn = decodeDetections(now, threshold_);
        const auto dg = decodeDetections(gold, threshold_);
        if (dn.size() != dg.size())
            return SdcSeverity::DetectionChange;
        SdcSeverity worst = SdcSeverity::Tolerable;
        for (std::size_t i = 0; i < dn.size(); ++i) {
            if (dn[i].cell != dg[i].cell)
                return SdcSeverity::DetectionChange;
            if (dn[i].cls != dg[i].cls)
                return SdcSeverity::CriticalChange;
            if (dn[i].pos != dg[i].pos)
                worst = SdcSeverity::DetectionChange;
        }
        return worst;
    }

    /** The quantised filters as loaded; clones share them. */
    std::shared_ptr<const YoliteNet<P>> pristine_;
    YoliteNet<P> net_;
    std::size_t batch_ = 2;
    double threshold_ = 0.0;
    std::vector<Value> pixels_;
    std::vector<Value> out_;
};

} // namespace

workloads::WorkloadMaker
findAnyWorkload(std::string_view name)
{
    if (name == "mnist")
        return workloads::dispatch<MnistWorkload>;
    if (name == "yolite")
        return workloads::dispatch<YoliteWorkload>;
    return workloads::findWorkload(name);
}

std::string
workloadNameError(const std::string &name)
{
    return findAnyWorkload(name) ? "" : "unknown workload '" + name + "'";
}

WorkloadPtr
makeAnyWorkload(const std::string &name, fp::Precision p, double scale)
{
    if (const auto make = findAnyWorkload(name))
        return workloads::stamped(make(p, scale), scale);
    fatal(workloadNameError(name));
}

} // namespace mparch::nn
