/**
 * @file
 * LavaMD benchmark.
 *
 * Particle-potential kernel after Rodinia's lavaMD (Szafaryn et al.):
 * for every particle, accumulate the potential and force contributed
 * by the particles of all neighbouring boxes through an exponential
 * cutoff interaction. The arithmetic mix is multiplication-dominated
 * (squares, scaling, force terms) with one transcendental exp() per
 * pair — the two properties the paper leans on when explaining
 * LavaMD's GPU FIT trend (follows Micro-MUL, Section 6.1) and its
 * Xeon Phi criticality inversion (Section 5.3).
 */

#ifndef MPARCH_WORKLOADS_LAVAMD_HH
#define MPARCH_WORKLOADS_LAVAMD_HH

#include <algorithm>
#include <cmath>

#include "workloads/workload.hh"

namespace mparch::workloads {

/** LavaMD particle interactions at precision P. */
template <fp::Precision P>
class LavaMDWorkload : public Workload
{
  public:
    using Value = fp::Fp<P>;

    /**
     * @param scale Problem-size knob; 1.0 means a 2x2x2 box grid with
     *              8 particles per box (4,096 interacting pairs).
     */
    explicit LavaMDWorkload(double scale = 1.0)
    {
        grid_ = 2;
        par_ = std::max<std::size_t>(
            2, static_cast<std::size_t>(std::lround(
                   8.0 * std::cbrt(std::max(scale, 1e-3)))));
        const std::size_t particles = boxCount() * par_;
        x_.resize(particles);
        y_.resize(particles);
        z_.resize(particles);
        q_.resize(particles);
        v_.resize(particles);
        fx_.resize(particles);
        fy_.resize(particles);
        fz_.resize(particles);
    }

    std::string name() const override { return "lavamd"; }

    fp::Precision precision() const override { return P; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<LavaMDWorkload<P>>(*this);
    }

    /** Number of boxes in the periodic grid. */
    std::size_t boxCount() const { return grid_ * grid_ * grid_; }

    void
    reset(std::uint64_t input_seed) override
    {
        Rng rng(input_seed);
        for (std::size_t i = 0; i < x_.size(); ++i) {
            x_[i] = Value::fromDouble(rng.uniform(0.0, 1.0));
            y_[i] = Value::fromDouble(rng.uniform(0.0, 1.0));
            z_[i] = Value::fromDouble(rng.uniform(0.0, 1.0));
            q_[i] = Value::fromDouble(rng.uniform(0.1, 1.0));
        }
        std::fill(v_.begin(), v_.end(), Value{});
        std::fill(fx_.begin(), fx_.end(), Value{});
        std::fill(fy_.begin(), fy_.end(), Value{});
        std::fill(fz_.begin(), fz_.end(), Value{});
    }

    void
    execute(ExecutionEnv &env) override
    {
        const Value a2 = Value::fromDouble(0.5);  // alpha^2 cutoff
        const Value two = Value::fromDouble(2.0);
        const fp::OpCounts pair_ops = boxPairBound();
        // One tick per (home box, neighbour box) pair, row-major; the
        // pair's interactions are one block.
        const std::size_t boxes = boxCount();
        for (std::size_t t = env.startTick(); t < boxes * boxes; ++t) {
            env.tick();
            if (env.aborted())
                return;
            fp::runBlock<P>(pair_ops, [&](auto load) {
                interact(load, t / boxes, t % boxes, a2, two);
            });
        }
    }

    std::vector<BufferView>
    buffers() override
    {
        return {makeBufferView("x", x_),  makeBufferView("y", y_),
                makeBufferView("z", z_),  makeBufferView("q", q_),
                makeBufferView("v", v_),  makeBufferView("fx", fx_),
                makeBufferView("fy", fy_), makeBufferView("fz", fz_)};
    }

    BufferView output() override { return makeBufferView("v", v_); }

    std::vector<std::span<std::byte>>
    checkpointState() override
    {
        return {stateBytes(x_),  stateBytes(y_),  stateBytes(z_),
                stateBytes(q_),  stateBytes(v_),  stateBytes(fx_),
                stateBytes(fy_), stateBytes(fz_)};
    }

    KernelDesc
    desc() const override
    {
        KernelDesc d;
        d.liveValues = 10;  // dx/dy/dz, r2, u2, vij, fs, accumulators
        d.inputStreams = 4;
        d.arithmeticIntensity = 16.0;  // compute-bound
        d.usesTranscendental = true;
        d.regularAccess = true;
        d.branchDensity = 0.05;
        return d;
    }

  private:
    /**
     * An upper bound on one box pair's ops: at most par^2 particle
     * pairs, each with three subs, ten muls, six adds and one exp.
     */
    fp::OpCounts
    boxPairBound() const
    {
        fp::OpCounts bound = fp::expOpBound(Value::format());
        bound[static_cast<std::size_t>(fp::OpKind::Sub)] += 3;
        bound[static_cast<std::size_t>(fp::OpKind::Mul)] += 10;
        bound[static_cast<std::size_t>(fp::OpKind::Add)] += 6;
        for (auto &n : bound)
            n *= par_ * par_;
        return bound;
    }

    /** Accumulate contributions of box @p nb onto box @p hb. */
    template <class Load>
    void
    interact(Load load, std::size_t hb, std::size_t nb, Value a2_in,
             Value two_in)
    {
        using V = typename Load::Value;
        const V a2 = load(a2_in);
        const V two = load(two_in);
        const std::size_t base_i = hb * par_;
        const std::size_t base_j = nb * par_;
        for (std::size_t i = base_i; i < base_i + par_; ++i) {
            for (std::size_t j = base_j; j < base_j + par_; ++j) {
                if (i == j)
                    continue;
                // Explicit mul/add (not contracted to FMA), matching
                // the Rodinia source and keeping the kernel's
                // instruction mix multiplication-dominated.
                const V dx = load(x_[i]) - load(x_[j]);
                const V dy = load(y_[i]) - load(y_[j]);
                const V dz = load(z_[i]) - load(z_[j]);
                const V r2 = dx * dx + dy * dy + dz * dz;
                const V u2 = a2 * r2;
                const V vij = exp(-u2);
                const V qj = load(q_[j]);
                const V fs = two * qj * vij;
                v_[i] = Value(load(v_[i]) + qj * vij);
                fx_[i] = Value(load(fx_[i]) + dx * fs);
                fy_[i] = Value(load(fy_[i]) + dy * fs);
                fz_[i] = Value(load(fz_[i]) + dz * fs);
            }
        }
    }

    std::size_t grid_;
    std::size_t par_;
    std::vector<Value> x_, y_, z_, q_;
    std::vector<Value> v_, fx_, fy_, fz_;
};

} // namespace mparch::workloads

#endif // MPARCH_WORKLOADS_LAVAMD_HH
