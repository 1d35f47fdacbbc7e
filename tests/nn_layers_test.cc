/**
 * @file
 * White-box reference tests for the NN layers: the softfloat conv /
 * pool / dense pipeline against naive host-double recomputation, the
 * detector's correlation math and threshold behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/digits.hh"
#include "nn/mnistnet.hh"
#include "nn/nn_workloads.hh"
#include "nn/yolite.hh"

namespace mparch::nn {
namespace {

using fp::Precision;

/**
 * The full double-precision forward pass of MnistNet must match a
 * naive host reimplementation of conv+ReLU+pool+dense on the same
 * weights — a white-box check that the softfloat pipeline computes
 * the network it claims to.
 */
TEST(MnistNetLayers, ForwardMatchesNaiveHostPipeline)
{
    const MnistParams &p = pretrainedMnist();
    DigitGenerator gen(17);
    const DigitSample s = gen.next();

    // Host pipeline.
    std::array<double, kFlat> flat{};
    for (std::size_t f = 0; f < kConvFilters; ++f) {
        for (std::size_t py = 0; py < kPoolOut; ++py) {
            for (std::size_t px = 0; px < kPoolOut; ++px) {
                double best = -1e300;
                for (std::size_t wy = 0; wy < 2; ++wy) {
                    for (std::size_t wx = 0; wx < 2; ++wx) {
                        const std::size_t oy = 2 * py + wy;
                        const std::size_t ox = 2 * px + wx;
                        double acc = p.convB[f];
                        for (std::size_t ky = 0; ky < kKernel; ++ky)
                            for (std::size_t kx = 0; kx < kKernel;
                                 ++kx)
                                acc = std::fma(
                                    p.convW[(f * kKernel + ky) *
                                                kKernel +
                                            kx],
                                    s.pixels[(oy + ky) * kDigitSize +
                                             ox + kx],
                                    acc);
                        best = std::max(best, std::max(0.0, acc));
                    }
                }
                flat[(f * kPoolOut + py) * kPoolOut + px] = best;
            }
        }
    }
    std::array<double, kHidden> hidden{};
    for (std::size_t h = 0; h < kHidden; ++h) {
        double acc = p.fc1B[h];
        for (std::size_t i = 0; i < kFlat; ++i)
            acc = std::fma(p.fc1W[h * kFlat + i], flat[i], acc);
        hidden[h] = std::max(0.0, acc);
    }
    std::array<double, kDigitClasses> want{};
    for (std::size_t c = 0; c < kDigitClasses; ++c) {
        double acc = p.fc2B[c];
        for (std::size_t h = 0; h < kHidden; ++h)
            acc = std::fma(p.fc2W[c * kHidden + h], hidden[h], acc);
        want[c] = acc;
    }

    // Softfloat pipeline at double: bit-comparable modulo the input
    // encoding (exact: pixels are exactly representable doubles).
    MnistNet<Precision::Double> net(p);
    std::vector<fp::Fp<Precision::Double>> image(s.pixels.size());
    for (std::size_t i = 0; i < s.pixels.size(); ++i)
        image[i] = fp::Fp<Precision::Double>::fromDouble(s.pixels[i]);
    std::array<fp::Fp<Precision::Double>, kDigitClasses> logits{};
    net.infer(image, logits);
    for (std::size_t c = 0; c < kDigitClasses; ++c)
        EXPECT_DOUBLE_EQ(logits[c].toDouble(), want[c]) << c;
}

TEST(YoliteLayers, CorrelationMatchesHostDotProduct)
{
    YoliteNet<Precision::Double> net;
    SceneGenerator gen(5);
    const Scene scene = gen.next();
    std::vector<fp::Fp<Precision::Double>> image(scene.pixels.size());
    for (std::size_t i = 0; i < scene.pixels.size(); ++i)
        image[i] = fp::Fp<Precision::Double>::fromDouble(scene.pixels[i]);
    std::vector<fp::Fp<Precision::Double>> out;
    net.detect(image, out);

    // Recompute one cell's class score on the host.
    const std::vector<double> bank = yoliteFilterBank();
    const std::size_t cell = 4;  // centre cell
    const std::size_t cy = cell / kGrid, cx = cell % kGrid;
    for (std::size_t cls = 0; cls < kYoliteClasses; ++cls) {
        double best = -1e300;
        for (std::size_t my = 0; my < 4; ++my) {
            for (std::size_t mx = 0; mx < 4; ++mx) {
                const std::size_t y = 4 * cy + my;
                const std::size_t x = 4 * cx + mx;
                double acc = 0.0;
                for (std::size_t ky = 0; ky < kShapeSize; ++ky)
                    for (std::size_t kx = 0; kx < kShapeSize; ++kx)
                        acc = std::fma(
                            bank[(cls * kShapeSize + ky) *
                                     kShapeSize +
                                 kx],
                            scene
                                .pixels[(y + ky) * kSceneSize + x +
                                        kx],
                            acc);
                best = std::max(best, acc);
            }
        }
        EXPECT_NEAR(out[cell * kCellValues + cls].toDouble(), best,
                    1e-12)
            << cls;
    }
}

TEST(YoliteLayers, ThresholdSeparatesObjectsFromBackground)
{
    // A clean scene with one object: the object's cell must score
    // above threshold, empty corner cells below.
    YoliteNet<Precision::Double> net;
    Scene scene;  // hand-built: one square (class 0) at (2, 2)
    const char *shape = "#####"
                        "#...#"
                        "#...#"
                        "#...#"
                        "#####";
    for (std::size_t ky = 0; ky < kShapeSize; ++ky)
        for (std::size_t kx = 0; kx < kShapeSize; ++kx)
            if (shape[ky * kShapeSize + kx] == '#')
                scene.pixels[(2 + ky) * kSceneSize + 2 + kx] = 1.0;

    std::vector<fp::Fp<Precision::Double>> image(scene.pixels.size());
    for (std::size_t i = 0; i < scene.pixels.size(); ++i)
        image[i] = fp::Fp<Precision::Double>::fromDouble(scene.pixels[i]);
    std::vector<fp::Fp<Precision::Double>> out;
    net.detect(image, out);
    std::array<double, kYoliteOut> host{};
    for (std::size_t i = 0; i < kYoliteOut; ++i)
        host[i] = out[i].toDouble();

    const double threshold = yoliteThreshold();
    const auto dets = decodeDetections(host, threshold);
    ASSERT_EQ(dets.size(), 1u);
    EXPECT_EQ(dets[0].cls, 0u);
    EXPECT_EQ(dets[0].cell, 0u);  // top-left grid cell
    EXPECT_EQ(dets[0].pos, 2 * static_cast<long>(kMapSize) + 2);
    EXPECT_GT(dets[0].score, threshold);
}

TEST(YoliteLayers, EmptySceneYieldsNoDetections)
{
    YoliteNet<Precision::Single> net;
    std::vector<fp::Fp<Precision::Single>> image(kSceneSize * kSceneSize);
    for (auto &px : image)
        px = fp::Fp<Precision::Single>::fromDouble(0.0);
    std::vector<fp::Fp<Precision::Single>> out;
    net.detect(image, out);
    std::array<double, kYoliteOut> host{};
    for (std::size_t i = 0; i < kYoliteOut; ++i)
        host[i] = out[i].toDouble();
    EXPECT_TRUE(decodeDetections(host, yoliteThreshold()).empty());
}

TEST(DigitsLayers, JitterStaysWithinOnePixel)
{
    // Sample pixels may only come from the prototype shifted by at
    // most one pixel plus bounded noise: the ink centre of mass must
    // stay close to the prototype's.
    DigitGenerator gen(23, /*noise=*/0.0);
    for (std::size_t label = 0; label < kDigitClasses; ++label) {
        const DigitSample s = gen.sampleOf(label);
        const char *glyph = kDigitGlyphs[label];
        double sx = 0, sy = 0, sn = 0, gx = 0, gy = 0, gn = 0;
        for (std::size_t y = 0; y < kDigitSize; ++y) {
            for (std::size_t x = 0; x < kDigitSize; ++x) {
                const double ink = s.pixels[y * kDigitSize + x];
                sx += ink * static_cast<double>(x);
                sy += ink * static_cast<double>(y);
                sn += ink;
                const double g =
                    glyph[y * kDigitSize + x] == '#' ? 1.0 : 0.0;
                gx += g * static_cast<double>(x);
                gy += g * static_cast<double>(y);
                gn += g;
            }
        }
        EXPECT_NEAR(sx / sn, gx / gn, 1.4) << label;
        EXPECT_NEAR(sy / sn, gy / gn, 1.4) << label;
    }
}

} // namespace
} // namespace mparch::nn
