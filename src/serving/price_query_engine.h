#ifndef MBP_SERVING_PRICE_QUERY_ENGINE_H_
#define MBP_SERVING_PRICE_QUERY_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/thread_pool.h"
#include "serving/catalog_registry.h"

namespace mbp::serving {

// The broker-side serving front end for price queries: resolves curve ids
// through a CatalogRegistry, evaluates the current snapshot, and fans
// large batches across the shared ThreadPool.
//
// Concurrency: Price/PriceBatch/BudgetToInverseNcp are safe to call from
// any number of threads concurrently with Publish/Withdraw on the
// registry. Every served price is the bit-exact evaluation of a published
// snapshot; during a racing republish a query may be served from either
// the outgoing or the incoming curve, but once Publish returns every new
// query serves the new curve. See DESIGN.md §5b.
//
// Determinism: PriceBatch writes each output slot from an independent pure
// evaluation of one snapshot, so results are bit-identical to the serial
// loop at every thread count, and to Price() on the same engine.
class PriceQueryEngine {
 public:
  // Batches smaller than this run inline on the calling thread; pool
  // dispatch only pays off once a batch clearly exceeds its overhead.
  static constexpr size_t kMinParallelBatch = 2048;
  // Queries per ParallelFor chunk in the batch path.
  static constexpr size_t kBatchGrain = 1024;

  // `registry` must outlive the engine.
  explicit PriceQueryEngine(const CatalogRegistry* registry);

  // --- Point queries ------------------------------------------------------

  // Price of the model at x = 1/delta on the current snapshot. NotFound if
  // the id was never published or withdrawn.
  StatusOr<double> Price(const CatalogRegistry::CurveSlot* slot,
                         double x) const;
  StatusOr<double> Price(const std::string& curve_id, double x) const;

  // Largest affordable x for `budget` on the current snapshot.
  StatusOr<double> BudgetToInverseNcp(const CatalogRegistry::CurveSlot* slot,
                                      double budget) const;
  StatusOr<double> BudgetToInverseNcp(const std::string& curve_id,
                                      double budget) const;

  // --- Batched throughput path -------------------------------------------

  // Evaluates xs[i] -> out[i] for i in [0, count). The whole batch is
  // served from ONE snapshot load (a consistent view even while the curve
  // is republished mid-batch). Results are bit-identical to calling
  // Price() per element at any thread count.
  Status PriceBatch(const CatalogRegistry::CurveSlot* slot,
                    const double* xs, double* out, size_t count,
                    const ParallelConfig& parallel = {}) const;
  Status PriceBatch(const std::string& curve_id, const std::vector<double>& xs,
                    std::vector<double>* out,
                    const ParallelConfig& parallel = {}) const;

  const CatalogRegistry& registry() const { return *registry_; }

 private:
  StatusOr<const CatalogRegistry::CurveSlot*> ResolveSlot(
      const std::string& curve_id) const;

  const CatalogRegistry* registry_;
};

}  // namespace mbp::serving

#endif  // MBP_SERVING_PRICE_QUERY_ENGINE_H_
