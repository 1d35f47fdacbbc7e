#include "nn/yolite.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mparch::nn {

namespace {

constexpr std::array<const char *, kYoliteClasses> kShapes = {
    // square (hollow box)
    "#####"
    "#...#"
    "#...#"
    "#...#"
    "#####",
    // plus
    "..#.."
    "..#.."
    "#####"
    "..#.."
    "..#..",
    // diamond
    "..#.."
    ".#.#."
    "#...#"
    ".#.#."
    "..#..",
};

} // namespace

std::vector<double>
yoliteFilterBank()
{
    std::vector<double> bank(kYoliteClasses * kShapeSize * kShapeSize);
    for (std::size_t cls = 0; cls < kYoliteClasses; ++cls) {
        double mean = 0.0;
        for (std::size_t i = 0; i < kShapeSize * kShapeSize; ++i)
            mean += kShapes[cls][i] == '#' ? 1.0 : 0.0;
        mean /= kShapeSize * kShapeSize;
        double norm = 0.0;
        for (std::size_t i = 0; i < kShapeSize * kShapeSize; ++i) {
            const double v =
                (kShapes[cls][i] == '#' ? 1.0 : 0.0) - mean;
            bank[cls * kShapeSize * kShapeSize + i] = v;
            norm += v * v;
        }
        norm = std::sqrt(norm);
        for (std::size_t i = 0; i < kShapeSize * kShapeSize; ++i)
            bank[cls * kShapeSize * kShapeSize + i] /= norm;
    }
    return bank;
}

double
yoliteThreshold()
{
    // Smallest self-response of a clean shape against its own
    // matched filter, scaled back for noise/jitter headroom.
    const std::vector<double> bank = yoliteFilterBank();
    double min_self = 1e300;
    for (std::size_t cls = 0; cls < kYoliteClasses; ++cls) {
        double self = 0.0;
        for (std::size_t i = 0; i < kShapeSize * kShapeSize; ++i) {
            self += bank[cls * kShapeSize * kShapeSize + i] *
                    (kShapes[cls][i] == '#' ? 1.0 : 0.0);
        }
        min_self = std::min(min_self, self);
    }
    return 0.6 * min_self;
}

Scene
SceneGenerator::next()
{
    Scene scene;
    const std::size_t count = 1 + rng_.below(2);
    const std::size_t span = kSceneSize - kShapeSize;
    for (std::size_t n = 0; n < count; ++n) {
        // Rejection-place to avoid overlapping objects.
        for (int attempt = 0; attempt < 32; ++attempt) {
            SceneObject obj;
            obj.cls = rng_.below(kYoliteClasses);
            obj.y = rng_.below(span + 1);
            obj.x = rng_.below(span + 1);
            bool clash = false;
            for (const auto &other : scene.objects) {
                const auto dy =
                    static_cast<long>(obj.y) - static_cast<long>(other.y);
                const auto dx =
                    static_cast<long>(obj.x) - static_cast<long>(other.x);
                if (std::abs(dy) < static_cast<long>(kShapeSize) + 1 &&
                    std::abs(dx) < static_cast<long>(kShapeSize) + 1) {
                    clash = true;
                    break;
                }
            }
            if (clash)
                continue;
            scene.objects.push_back(obj);
            break;
        }
    }
    for (const auto &obj : scene.objects) {
        const char *shape = kShapes[obj.cls];
        for (std::size_t ky = 0; ky < kShapeSize; ++ky)
            for (std::size_t kx = 0; kx < kShapeSize; ++kx)
                if (shape[ky * kShapeSize + kx] == '#')
                    scene.pixels[(obj.y + ky) * kSceneSize + obj.x +
                                 kx] = 1.0;
    }
    for (auto &px : scene.pixels)
        px = std::clamp(px + rng_.normal(0.0, noise_), 0.0, 1.0);
    return scene;
}

std::vector<Detection>
decodeDetections(const std::array<double, kYoliteOut> &out,
                 double threshold)
{
    std::vector<Detection> dets;
    for (std::size_t cell = 0; cell < kGrid * kGrid; ++cell) {
        const double *scores = &out[cell * kCellValues];
        std::size_t best_cls = 0;
        for (std::size_t cls = 1; cls < kYoliteClasses; ++cls)
            if (scores[cls] > scores[best_cls])
                best_cls = cls;
        if (scores[best_cls] < threshold)
            continue;
        Detection det;
        det.cell = cell;
        det.cls = best_cls;
        det.pos = std::lround(scores[kYoliteClasses]);
        det.score = scores[best_cls];
        dets.push_back(det);
    }
    return dets;
}

} // namespace mparch::nn
