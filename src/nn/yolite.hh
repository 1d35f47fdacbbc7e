/**
 * @file
 * YOLite: a miniature anchor-free object detector.
 *
 * Substitution note (DESIGN.md): the paper runs YOLOv3 on the Caltech
 * pedestrian set; neither fits this environment, so YOLite detects
 * geometric objects (square / plus / diamond) in synthetic 16x16
 * scenes using matched-filter convolutions and a cell grid head. What
 * the paper's Figures 10c/11c need from the detector is exactly what
 * YOLite preserves: a conv-based forward pass in a chosen precision
 * whose outputs are per-cell class scores plus *integer-valued*
 * positions, so that faults can leave detections intact (tolerable),
 * move or drop boxes (detection change), or flip the detected class
 * (classification change).
 */

#ifndef MPARCH_NN_YOLITE_HH
#define MPARCH_NN_YOLITE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "fp/host.hh"

namespace mparch::nn {

/** Scene side length. */
inline constexpr std::size_t kSceneSize = 16;

/** Detector kernel side length. */
inline constexpr std::size_t kShapeSize = 5;

/** Object classes. */
inline constexpr std::size_t kYoliteClasses = 3;

/** Correlation map side (valid convolution). */
inline constexpr std::size_t kMapSize =
    kSceneSize - kShapeSize + 1;  // 12

/** Detection head grid (each cell covers 4x4 map positions). */
inline constexpr std::size_t kGrid = 3;

/** Values per cell in the detector output: 3 scores + position. */
inline constexpr std::size_t kCellValues = kYoliteClasses + 1;

/** Flattened detector output size. */
inline constexpr std::size_t kYoliteOut =
    kGrid * kGrid * kCellValues;  // 36

/** One ground-truth or decoded object. */
struct SceneObject
{
    std::size_t cls = 0;   ///< class index
    std::size_t y = 0;     ///< top-left of the 5x5 patch in the scene
    std::size_t x = 0;
};

/** A generated scene with ground truth. */
struct Scene
{
    std::array<double, kSceneSize * kSceneSize> pixels{};
    std::vector<SceneObject> objects;
};

/** Deterministic scene generator. */
class SceneGenerator
{
  public:
    explicit SceneGenerator(std::uint64_t seed, double noise = 0.08)
        : rng_(seed), noise_(noise)
    {}

    /** Generate the next scene (1..2 non-overlapping objects). */
    Scene next();

  private:
    Rng rng_;
    double noise_;
};

/** One decoded detection. */
struct Detection
{
    std::size_t cell = 0;  ///< grid cell index
    std::size_t cls = 0;   ///< detected class
    long pos = 0;          ///< best map position (integer-valued)
    double score = 0.0;
};

/**
 * Decode a detector output block (host doubles) into detections.
 *
 * @param out       kYoliteOut values: per cell, class scores then pos.
 * @param threshold Cells whose best score is below this are empty.
 */
std::vector<Detection> decodeDetections(
    const std::array<double, kYoliteOut> &out, double threshold);

/** Matched filter weights (zero-mean, unit-norm), in host double. */
std::vector<double> yoliteFilterBank();

/** Detection threshold matched to the filter bank's self-response. */
double yoliteThreshold();

/**
 * The detector at precision P.
 *
 * Forward pass: for each class, correlate the scene with the class's
 * matched filter (FMA chain); for each grid cell output the max
 * per-class scores over the cell's map positions and the
 * integer-valued position of the cell's best response.
 */
template <fp::Precision P>
class YoliteNet
{
  public:
    using Value = fp::Fp<P>;

    YoliteNet()
    {
        const std::vector<double> bank = yoliteFilterBank();
        filters_.resize(bank.size());
        for (std::size_t i = 0; i < bank.size(); ++i)
            filters_[i] = Value::fromDouble(bank[i]);
    }

    /** Weight buffer (fault-injection target). */
    std::vector<Value> &filters() { return filters_; }

    /**
     * Run detection.
     *
     * @param image kSceneSize^2 pixels at precision P.
     * @param out   kYoliteOut values, laid out per cell.
     */
    void
    detect(const std::vector<Value> &image,
           std::vector<Value> &out) const
    {
        out.assign(kYoliteOut, Value{});
        for (std::size_t cy = 0; cy < kGrid; ++cy) {
            for (std::size_t cx = 0; cx < kGrid; ++cx) {
                const std::size_t cell = cy * kGrid + cx;
                Value best_score{};
                long best_pos = 0;
                bool first = true;
                for (std::size_t cls = 0; cls < kYoliteClasses;
                     ++cls) {
                    Value cls_best{};
                    bool cls_first = true;
                    for (std::size_t my = 0; my < 4; ++my) {
                        for (std::size_t mx = 0; mx < 4; ++mx) {
                            const std::size_t y = 4 * cy + my;
                            const std::size_t x = 4 * cx + mx;
                            const Value s = correlate(image, cls, y, x);
                            if (cls_first || cls_best < s) {
                                cls_best = s;
                                cls_first = false;
                            }
                            if (first || best_score < s) {
                                best_score = s;
                                best_pos = static_cast<long>(
                                    y * kMapSize + x);
                                first = false;
                            }
                        }
                    }
                    out[cell * kCellValues + cls] = cls_best;
                }
                out[cell * kCellValues + kYoliteClasses] =
                    Value::fromDouble(static_cast<double>(best_pos));
            }
        }
    }

  private:
    /**
     * Correlation of filter @p cls with the patch at (y, x): one
     * fp::fmaChain of the filter row against the patch's pixels.
     */
    Value
    correlate(const std::vector<Value> &image, std::size_t cls,
              std::size_t y, std::size_t x) const
    {
        std::array<Value, kShapeSize * kShapeSize> patch;
        for (std::size_t ky = 0; ky < kShapeSize; ++ky)
            for (std::size_t kx = 0; kx < kShapeSize; ++kx)
                patch[ky * kShapeSize + kx] =
                    image[(y + ky) * kSceneSize + x + kx];
        return fp::fmaChain(&filters_[cls * patch.size()], 1, patch.data(),
                            1, patch.size(), Value{});
    }

    std::vector<Value> filters_;
};

} // namespace mparch::nn

#endif // MPARCH_NN_YOLITE_HH
