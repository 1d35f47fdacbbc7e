#include "hooks.hh"

#include "fp/internal.hh"

namespace mparch::fp {

namespace {

thread_local FpContext *tlsContext = nullptr;

} // namespace

const char *
opKindName(OpKind op)
{
    switch (op) {
      case OpKind::Add:     return "add";
      case OpKind::Sub:     return "sub";
      case OpKind::Mul:     return "mul";
      case OpKind::Fma:     return "fma";
      case OpKind::Div:     return "div";
      case OpKind::Sqrt:    return "sqrt";
      case OpKind::Exp:     return "exp";
      case OpKind::Convert: return "convert";
      default:              return "?";
    }
}

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::OperandA:      return "operand-a";
      case Stage::OperandB:      return "operand-b";
      case Stage::OperandC:      return "operand-c";
      case Stage::AlignedSigA:   return "aligned-sig-a";
      case Stage::AlignedSigB:   return "aligned-sig-b";
      case Stage::ProductLo:     return "product-lo";
      case Stage::ProductHi:     return "product-hi";
      case Stage::PreRoundSig:   return "pre-round-sig";
      case Stage::ExponentLogic: return "exponent-logic";
      case Stage::Result:        return "result";
      default:                   return "?";
    }
}

FpContext *
currentContext()
{
    return tlsContext;
}

FpEnvGuard::FpEnvGuard(FpContext &ctx)
    : saved_(tlsContext)
{
    tlsContext = &ctx;
}

FpEnvGuard::~FpEnvGuard()
{
    tlsContext = saved_;
}

namespace detail {

OpCtx
enterOp(OpKind op)
{
    FpContext *ctx = tlsContext;
    if (ctx == nullptr)
        return {nullptr, false, hostFpuReady()};
    ++ctx->opCount[static_cast<std::size_t>(op)];
    if (ctx->hook != nullptr) {
        StrikeTrigger *strike = ctx->strike;
        if (strike == nullptr)
            return {ctx, true, false};
        strike->enter(op);
        if (strike->strikes(op))
            return {ctx, true, false};
    }
    return {ctx, false, hostFpuReady()};
}

namespace {

/**
 * Whether the current context lets the host run un-struck ops at
 * all; @p strike is then the trigger they must be counted past, or
 * null when there is none.
 */
bool
hostRoute(const FpContext *ctx, const StrikeTrigger *&strike)
{
    strike = nullptr;
    if (ctx != nullptr && ctx->hook != nullptr) {
        if (ctx->strike == nullptr)
            return false;
        strike = ctx->strike;
    }
    return hostFpuReady();
}

} // namespace

OpCounts
peekBlock(const OpCounts &upper)
{
    const StrikeTrigger *strike;
    if (!hostRoute(tlsContext, strike))
        return {};
    if (strike == nullptr)
        return upper;
    OpCounts run;
    for (std::size_t k = 0; k < run.size(); ++k)
        run[k] = strike->unstruck(static_cast<OpKind>(k), upper[k]);
    return run;
}

std::uint64_t
peekBlock(OpKind op, std::uint64_t n)
{
    const StrikeTrigger *strike;
    if (!hostRoute(tlsContext, strike))
        return 0;
    return strike == nullptr ? n : strike->unstruck(op, n);
}

void
commitBlock(const OpCounts &exact, OpKind last)
{
    FpContext *ctx = tlsContext;
    if (ctx == nullptr)
        return;
    const auto l = static_cast<std::size_t>(last);
    for (std::size_t k = 0; k < exact.size(); ++k) {
        if (k != l)
            commitBlock(static_cast<OpKind>(k), exact[k]);
    }
    if (l < exact.size())
        commitBlock(last, exact[l]);
}

void
commitBlock(OpKind op, std::uint64_t n)
{
    FpContext *ctx = tlsContext;
    if (ctx == nullptr)
        return;
    ctx->opCount[static_cast<std::size_t>(op)] += n;
    if (ctx->hook != nullptr && ctx->strike != nullptr)
        ctx->strike->skip(op, n);
}

} // namespace detail

} // namespace mparch::fp
