#include "serving/price_query_engine.h"

#include "common/check.h"

namespace mbp::serving {
namespace {

Status CurveNotServing() {
  return NotFoundError("curve is not being served (withdrawn or never "
                       "published)");
}

}  // namespace

PriceQueryEngine::PriceQueryEngine(const CatalogRegistry* registry)
    : registry_(registry) {
  MBP_CHECK(registry != nullptr);
}

StatusOr<const CatalogRegistry::CurveSlot*> PriceQueryEngine::ResolveSlot(
    const std::string& curve_id) const {
  const CatalogRegistry::CurveSlot* slot = registry_->Find(curve_id);
  if (slot == nullptr) return CurveNotServing();
  return slot;
}

StatusOr<double> PriceQueryEngine::Price(
    const CatalogRegistry::CurveSlot* slot, double x) const {
  MBP_CHECK(slot != nullptr);
  const std::shared_ptr<const PricingSnapshot> snapshot = slot->Load();
  if (snapshot == nullptr) return CurveNotServing();
  return snapshot->PriceAt(x);
}

StatusOr<double> PriceQueryEngine::Price(const std::string& curve_id,
                                         double x) const {
  MBP_ASSIGN_OR_RETURN(const CatalogRegistry::CurveSlot* slot,
                       ResolveSlot(curve_id));
  return Price(slot, x);
}

StatusOr<double> PriceQueryEngine::BudgetToInverseNcp(
    const CatalogRegistry::CurveSlot* slot, double budget) const {
  MBP_CHECK(slot != nullptr);
  const std::shared_ptr<const PricingSnapshot> snapshot = slot->Load();
  if (snapshot == nullptr) return CurveNotServing();
  return snapshot->BudgetToInverseNcp(budget);
}

StatusOr<double> PriceQueryEngine::BudgetToInverseNcp(
    const std::string& curve_id, double budget) const {
  MBP_ASSIGN_OR_RETURN(const CatalogRegistry::CurveSlot* slot,
                       ResolveSlot(curve_id));
  return BudgetToInverseNcp(slot, budget);
}

Status PriceQueryEngine::PriceBatch(const CatalogRegistry::CurveSlot* slot,
                                    const double* xs, double* out,
                                    size_t count,
                                    const ParallelConfig& parallel) const {
  MBP_CHECK(slot != nullptr);
  if (count > 0 && (xs == nullptr || out == nullptr)) {
    return InvalidArgumentError("PriceBatch needs non-null xs/out buffers");
  }
  // One snapshot for the whole batch: a consistent curve view even if a
  // republish lands mid-batch, and no per-element atomics.
  const std::shared_ptr<const PricingSnapshot> snapshot = slot->Load();
  if (snapshot == nullptr) return CurveNotServing();
  const PricingSnapshot& snap = *snapshot;
  // Queries stream through the vectorized PriceAtBatch kernel. Evaluation
  // is per-element pure, so any ParallelFor partition produces the same
  // bits (and the same bits as Price() per element, since PriceAtBatch is
  // bit-identical to PriceAt).
  const auto evaluate = [&](size_t begin, size_t end) {
    snap.PriceAtBatch(xs + begin, out + begin, end - begin);
    return Status::OK();
  };
  if (count < kMinParallelBatch || parallel.ResolvedThreads() <= 1) {
    return evaluate(0, count);
  }
  // Disjoint output slots per chunk and a pure per-element evaluation:
  // bit-identical to the serial loop at every thread count.
  return ParallelFor(parallel, 0, count, kBatchGrain, evaluate);
}

Status PriceQueryEngine::PriceBatch(const std::string& curve_id,
                                    const std::vector<double>& xs,
                                    std::vector<double>* out,
                                    const ParallelConfig& parallel) const {
  MBP_CHECK(out != nullptr);
  MBP_ASSIGN_OR_RETURN(const CatalogRegistry::CurveSlot* slot,
                       ResolveSlot(curve_id));
  out->resize(xs.size());
  return PriceBatch(slot, xs.data(), out->data(), xs.size(), parallel);
}

}  // namespace mbp::serving
