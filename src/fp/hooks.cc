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

const char *
roundingName(Rounding mode)
{
    switch (mode) {
      case Rounding::NearestEven: return "nearest-even";
      case Rounding::TowardZero:  return "toward-zero";
      case Rounding::Upward:      return "upward";
      case Rounding::Downward:    return "downward";
    }
    return "?";
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
enterOp(OpKind op, bool reads_operand)
{
    FpContext *ctx = tlsContext;
    if (ctx == nullptr)
        return {nullptr, false, hostFpuReady()};
    ++ctx->opCount[static_cast<std::size_t>(op)];
    if (!reads_operand)
        ++ctx->operandless[static_cast<std::size_t>(op)];
    if (ctx->hook != nullptr) {
        StrikeTrigger *strike = ctx->strike;
        if (strike == nullptr)
            return {ctx, true, false};
        if (reads_operand)
            strike->enter(op);
        if (strike->strikes(op))
            return {ctx, true, false};
    }
    return {ctx, false,
            ctx->rounding == Rounding::NearestEven && hostFpuReady()};
}

std::uint64_t
peekRun(OpKind op, std::uint64_t n)
{
    const FpContext *ctx = tlsContext;
    std::uint64_t run = n;
    if (ctx != nullptr) {
        if (ctx->rounding != Rounding::NearestEven)
            return 0;
        if (ctx->hook != nullptr) {
            if (ctx->strike == nullptr)
                return 0;
            run = ctx->strike->unstruck(op, n);
        }
    }
    return run != 0 && hostFpuReady() ? run : 0;
}

void
commitRun(OpKind op, std::uint64_t k)
{
    FpContext *ctx = tlsContext;
    if (ctx == nullptr)
        return;
    ctx->opCount[static_cast<std::size_t>(op)] += k;
    if (ctx->hook != nullptr && ctx->strike != nullptr)
        ctx->strike->skip(op, k);
}

} // namespace detail

} // namespace mparch::fp
