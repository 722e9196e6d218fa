#include "serving/fulfillment.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "core/mechanism.h"
#include "ml/trainer.h"
#include "random/rng.h"

namespace mbp::serving {
namespace {

// Little-endian scalar append/read for the durable-record codecs.
template <typename T>
void AppendScalar(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool ReadScalar(std::string_view* in, T* value) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(value, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

}  // namespace

// --------------------------------------------------- ModelInstanceCache

size_t ModelInstanceCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      HashMix64((uint64_t{k.ref} << 32) ^ HashMix64(k.l2_bits)));
}

StatusOr<ModelInstanceCache::Weights> ModelInstanceCache::GetOrTrain(
    CurveRef ref, double l2, const TrainFn& train) {
  const Key key{ref, std::bit_cast<uint64_t>(l2)};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    hits_.Increment();
    TouchLocked(&it->second);
    return it->second.weights;
  }
  misses_.Increment();
  // Training inside the lock serializes cold misses but guarantees a
  // given (curve, λ) trains exactly once under concurrent BUYs.
  MBP_ASSIGN_OR_RETURN(linalg::Vector trained, train());
  Entry entry;
  entry.weights = std::make_shared<const linalg::Vector>(std::move(trained));
  // Allocator-held footprint: the vector's storage plus the map/list
  // bookkeeping per entry.
  entry.bytes = entry.weights->size() * sizeof(double) +
                sizeof(linalg::Vector) + sizeof(Entry) + sizeof(Key) + 64;
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  bytes_ += entry.bytes;
  Weights result = entry.weights;
  entries_.emplace(key, std::move(entry));
  EvictPastBudgetLocked();
  return result;
}

size_t ModelInstanceCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t ModelInstanceCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

void ModelInstanceCache::TouchLocked(Entry* entry) {
  lru_.splice(lru_.begin(), lru_, entry->lru_it);
}

void ModelInstanceCache::EvictPastBudgetLocked() {
  // Keep at least the most-recent entry so an over-budget single model is
  // still servable (it just stops being cached alongside anything else).
  while (bytes_ > max_bytes_ && entries_.size() > 1) {
    const Key victim = lru_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    evictions_.Increment();
  }
}

// ---------------------------------------------------- FulfillmentEngine

FulfillmentEngine::FulfillmentEngine(const CatalogRegistry* catalog,
                                     FulfillmentOptions options)
    : catalog_(catalog),
      options_(options),
      token_secret_(HashMix64(options.epoch_seed ^ 0x746f6b656e736563ull)),
      model_cache_(options.max_model_cache_bytes) {}

uint64_t FulfillmentEngine::SeedForTransaction(uint64_t txn_id) const {
  return HashMix64(HashMix64(options_.epoch_seed) ^ HashMix64(txn_id));
}

uint64_t FulfillmentEngine::SeedCommitment(uint64_t seed) {
  return HashMix64(seed ^ 0x636f6d6d69746dull);
}

data::Simulated1Options FulfillmentEngine::TrainingSetOptionsFor(
    std::string_view curve_key) const {
  data::Simulated1Options opts;
  opts.num_features = options_.model_dim;
  opts.num_examples = options_.training_examples != 0
                          ? options_.training_examples
                          : 8 * options_.model_dim;
  opts.noise_stddev = 0.1;
  opts.seed = HashMix64(options_.dataset_seed ^ Fnv1a64(curve_key));
  return opts;
}

StatusOr<ModelQuote> FulfillmentEngine::Quote(std::string_view curve_id,
                                              double delta) {
  if (!(delta > 0.0) || !std::isfinite(delta)) {
    return InvalidArgumentError("delta must be positive and finite");
  }
  const CurveRef ref = catalog_->FindRef(curve_id);
  const CatalogRegistry::CurveSlot* slot =
      ref == kInvalidCurveRef ? nullptr : catalog_->slot(ref);
  std::shared_ptr<const PricingSnapshot> snapshot =
      slot != nullptr ? slot->Load() : nullptr;
  if (snapshot == nullptr) {
    return NotFoundError("no pricing published for curve");
  }
  ModelQuote quote;
  quote.delta = delta;
  quote.price = snapshot->PriceAt(1.0 / delta);
  quote.expires_at_micros =
      CatalogRegistry::NowMicros() + options_.quote_ttl_micros;
  const uint64_t mac =
      TokenMac(ref, delta, quote.price, quote.expires_at_micros);
  quote.token.resize(kQuoteTokenBytes);
  char* p = quote.token.data();
  std::memcpy(p, &ref, 4);
  std::memcpy(p + 4, &delta, 8);
  std::memcpy(p + 12, &quote.price, 8);
  std::memcpy(p + 20, &quote.expires_at_micros, 8);
  std::memcpy(p + 28, &mac, 8);
  return quote;
}

uint64_t FulfillmentEngine::TokenMac(CurveRef ref, double delta,
                                     double price,
                                     uint64_t expires_at_micros) const {
  uint64_t h = token_secret_;
  h = HashMix64(h ^ uint64_t{ref});
  h = HashMix64(h ^ std::bit_cast<uint64_t>(delta));
  h = HashMix64(h ^ std::bit_cast<uint64_t>(price));
  h = HashMix64(h ^ expires_at_micros);
  return h;
}

StatusOr<double> FulfillmentEngine::RedeemToken(std::string_view token,
                                                CurveRef ref,
                                                double delta) const {
  if (token.size() != kQuoteTokenBytes) {
    return InvalidArgumentError("malformed quote token");
  }
  const char* p = token.data();
  CurveRef token_ref = kInvalidCurveRef;
  double token_delta = 0.0;
  double token_price = 0.0;
  uint64_t expires_at_micros = 0;
  uint64_t mac = 0;
  std::memcpy(&token_ref, p, 4);
  std::memcpy(&token_delta, p + 4, 8);
  std::memcpy(&token_price, p + 12, 8);
  std::memcpy(&expires_at_micros, p + 20, 8);
  std::memcpy(&mac, p + 28, 8);
  if (mac != TokenMac(token_ref, token_delta, token_price,
                      expires_at_micros)) {
    return InvalidArgumentError("quote token failed authentication");
  }
  if (token_ref != ref) {
    return InvalidArgumentError("quote token is for a different curve");
  }
  if (std::bit_cast<uint64_t>(token_delta) !=
      std::bit_cast<uint64_t>(delta)) {
    return InvalidArgumentError("quote token is for a different delta");
  }
  if (CatalogRegistry::NowMicros() > expires_at_micros) {
    return FailedPreconditionError("quote token expired");
  }
  return token_price;
}

StatusOr<ModelInstanceCache::Weights> FulfillmentEngine::BaseModelFor(
    CurveRef ref) {
  return model_cache_.GetOrTrain(
      ref, options_.l2, [this, ref]() -> StatusOr<linalg::Vector> {
        const data::Simulated1Options opts =
            TrainingSetOptionsFor(catalog_->KeyOf(ref));
        MBP_ASSIGN_OR_RETURN(data::Dataset train,
                             data::GenerateSimulated1(opts));
        MBP_ASSIGN_OR_RETURN(ml::TrainResult result,
                             ml::TrainLinearRegression(train, options_.l2));
        return result.model.coefficients();
      });
}

std::vector<double> FulfillmentEngine::PerturbBase(
    const linalg::Vector& base, double delta, uint64_t seed) const {
  // Exactly the Broker::Sell draw: a fresh Rng(seed) feeding K_G. A
  // core::Broker built on the same training set with Options{.seed =
  // SeedForTransaction(txn)} sells the bit-identical instance — the
  // anchor tests assert this with exact equality.
  random::Rng rng(seed);
  const core::GaussianMechanism mechanism;
  return mechanism.Perturb(base, delta, rng).values();
}

StatusOr<Sale> FulfillmentEngine::Buy(std::string_view curve_id,
                                      double delta, uint64_t txn_id,
                                      std::string_view token) {
  const uint64_t start_micros = CatalogRegistry::NowMicros();
  if (txn_id == 0) {
    return InvalidArgumentError("transaction id must be non-zero");
  }
  // Idempotency fast path: an already-recorded txn re-delivers the
  // recorded sale regardless of this call's arguments.
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    auto it = ledger_.find(txn_id);
    if (it != ledger_.end()) {
      return DeliverRecorded(it->second);
    }
  }
  if (!(delta > 0.0) || !std::isfinite(delta)) {
    return InvalidArgumentError("delta must be positive and finite");
  }
  const CurveRef ref = catalog_->FindRef(curve_id);
  const CatalogRegistry::CurveSlot* slot =
      ref == kInvalidCurveRef ? nullptr : catalog_->slot(ref);
  std::shared_ptr<const PricingSnapshot> snapshot =
      slot != nullptr ? slot->Load() : nullptr;
  if (snapshot == nullptr) {
    return NotFoundError("no pricing published for curve");
  }
  double price = 0.0;
  if (!token.empty()) {
    MBP_ASSIGN_OR_RETURN(price, RedeemToken(token, ref, delta));
  } else {
    price = snapshot->PriceAt(1.0 / delta);
  }
  MBP_ASSIGN_OR_RETURN(ModelInstanceCache::Weights base, BaseModelFor(ref));

  const uint64_t seed = SeedForTransaction(txn_id);
  Sale sale;
  sale.record = SaleRecord{txn_id, ref, delta, price, SeedCommitment(seed)};
  sale.weights = PerturbBase(*base, delta, seed);

  SaleRecord raced_record;
  bool lost_insert_race = false;
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    auto [it, inserted] = ledger_.try_emplace(txn_id, sale.record);
    if (inserted) {
      ledger_fifo_.push_back(txn_id);
      if (ledger_fifo_.size() > options_.max_transactions) {
        ledger_.erase(ledger_fifo_.front());
        ledger_fifo_.pop_front();
      }
      revenue_ += price;
    } else {
      // Lost the insert race to a concurrent retry of the same txn:
      // deliver ITS recorded sale; nothing is charged here.
      raced_record = it->second;
      lost_insert_race = true;
    }
  }
  if (lost_insert_race) {
    return DeliverRecorded(raced_record);
  }
  if (wal_ != nullptr) {
    // Charge-durable-then-deliver: the sale record hits the log (and,
    // per the fsync policy, the disk) BEFORE this Buy returns bytes, so
    // an acked sale survives kill -9. Append runs outside ledger_mutex_
    // — group commit may block on a peer's fdatasync. On append failure
    // the charge is rolled back and the buyer sees the error; a
    // concurrent retry that raced the rollback was delivered a sale that
    // never became durable, which is exactly the un-acked case recovery
    // already tolerates.
    const Status appended =
        wal_->Append(EncodeSaleRecord(sale.record, curve_id));
    if (!appended.ok()) {
      std::lock_guard<std::mutex> lock(ledger_mutex_);
      ledger_.erase(txn_id);
      for (auto it = ledger_fifo_.rbegin(); it != ledger_fifo_.rend(); ++it) {
        if (*it == txn_id) {
          ledger_fifo_.erase(std::next(it).base());
          break;
        }
      }
      revenue_ -= price;
      return appended;
    }
  }
  buys_ok_.Increment();
  fulfillment_latency_.Record(
      static_cast<double>(CatalogRegistry::NowMicros() - start_micros));
  return sale;
}

StatusOr<Sale> FulfillmentEngine::DeliverRecorded(const SaleRecord& record) {
  if (record.curve_ref == kInvalidCurveRef) {
    // A recovered sale whose curve was never republished: the charge
    // stands (revenue counted it) but there is no training set to
    // rebuild the delivery from until the listing returns.
    return NotFoundError("recorded sale's curve is not in the catalog");
  }
  // Pure recomputation: the base model rebuilds bit-identically even if
  // it was evicted (synthetic dataset + closed-form trainer), and the
  // noise stream restarts from the same per-transaction seed. The curve's
  // key survives withdrawal/eviction, so replay outlives the listing.
  MBP_ASSIGN_OR_RETURN(ModelInstanceCache::Weights base,
                       BaseModelFor(record.curve_ref));
  Sale sale;
  sale.record = record;
  sale.weights =
      PerturbBase(*base, record.delta, SeedForTransaction(record.txn_id));
  sale.replayed = true;
  return sale;
}

StatusOr<Sale> FulfillmentEngine::ReplaySale(uint64_t txn_id) {
  SaleRecord record;
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    auto it = ledger_.find(txn_id);
    if (it == ledger_.end()) {
      return NotFoundError("transaction is not in the ledger");
    }
    record = it->second;
  }
  return DeliverRecorded(record);
}

FulfillmentStats FulfillmentEngine::Stats() const {
  FulfillmentStats stats;
  stats.buys_ok = buys_ok_.Value();
  stats.model_cache_entries = model_cache_.entries();
  stats.model_cache_bytes = model_cache_.bytes();
  stats.model_cache_hits = model_cache_.hits();
  stats.model_cache_misses = model_cache_.misses();
  stats.model_cache_evictions = model_cache_.evictions();
  stats.latency = fulfillment_latency_.Snapshot();
  if (wal_ != nullptr) {
    stats.wal_appends = wal_->appends();
    stats.wal_fsyncs = wal_->fsyncs();
    stats.wal_bytes = wal_->bytes_appended();
    stats.recovery_records = wal_recovery_.records_replayed;
    stats.recovery_torn_tail = wal_recovery_.torn_tail;
    // Round up so a fast-but-real recovery reads as at least 1 ms.
    stats.recovery_ms = (wal_recovery_.recovery_micros + 999) / 1000;
  }
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    stats.transactions_recorded = ledger_.size();
    stats.revenue = revenue_;
  }
  return stats;
}

// ------------------------------------------------------- durable ledger

std::string FulfillmentEngine::EncodeSaleRecord(const SaleRecord& record,
                                                std::string_view curve_id) {
  std::string out;
  out.reserve(32 + curve_id.size());
  AppendScalar(&out, record.txn_id);
  AppendScalar(&out, record.delta);
  AppendScalar(&out, record.price);
  AppendScalar(&out, record.seed_commitment);
  out.append(curve_id);
  return out;
}

bool FulfillmentEngine::DecodeSaleRecord(std::string_view bytes,
                                         SaleRecord* record,
                                         std::string* curve_id) {
  SaleRecord out;
  if (!ReadScalar(&bytes, &out.txn_id) || !ReadScalar(&bytes, &out.delta) ||
      !ReadScalar(&bytes, &out.price) ||
      !ReadScalar(&bytes, &out.seed_commitment)) {
    return false;
  }
  if (out.txn_id == 0) return false;
  *record = out;
  curve_id->assign(bytes);
  return true;
}

void FulfillmentEngine::RestoreSaleLocked(const SaleRecord& record) {
  const auto [it, inserted] = ledger_.try_emplace(record.txn_id, record);
  if (!inserted) return;  // post-fsync-pre-ack crash + retry: same txn twice
  ledger_fifo_.push_back(record.txn_id);
  if (ledger_fifo_.size() > options_.max_transactions) {
    ledger_.erase(ledger_fifo_.front());
    ledger_fifo_.pop_front();
  }
  revenue_ += record.price;
}

std::string FulfillmentEngine::SerializeLedgerLocked() const {
  std::string out;
  AppendScalar(&out, revenue_);
  AppendScalar(&out, static_cast<uint64_t>(ledger_fifo_.size()));
  for (const uint64_t txn_id : ledger_fifo_) {
    const auto it = ledger_.find(txn_id);
    const SaleRecord& record = it->second;
    // Invalid refs never enter the in-memory ledger (recovery keeps only
    // resolvable curves), so KeyOf is always defined here.
    const std::string encoded =
        EncodeSaleRecord(record, catalog_->KeyOf(record.curve_ref));
    AppendScalar(&out, static_cast<uint32_t>(encoded.size()));
    out.append(encoded);
  }
  return out;
}

Status FulfillmentEngine::OpenDurableLedger(const std::string& dir,
                                            const wal::WalOptions& options) {
  if (wal_ != nullptr) {
    return FailedPreconditionError("durable ledger is already open");
  }
  // Restores one encoded sale, resolving its journaled curve ID against
  // the catalog (publishes replay before the ledger opens). `charge`
  // distinguishes the two sources: segment records were charged
  // individually, checkpoint records are already inside the checkpoint's
  // revenue scalar.
  const auto restore = [this](std::string_view bytes, bool charge) -> bool {
    SaleRecord record;
    std::string curve_id;
    if (!DecodeSaleRecord(bytes, &record, &curve_id)) return false;
    record.curve_ref = catalog_->FindRef(curve_id);
    if (record.curve_ref == kInvalidCurveRef) {
      // The curve vanished from the catalog across the restart: keep the
      // charge (the sale happened) but drop the ledger entry — REPLAY of
      // it reports NotFound exactly like a FIFO-expired transaction.
      if (charge) revenue_ += record.price;
      return true;
    }
    const double before = revenue_;
    RestoreSaleLocked(record);
    if (!charge) revenue_ = before;  // scalar already covers it
    return true;
  };
  // Wal::Open streams segment records through the callback; buffer them
  // so the checkpoint (the OLDER state, only available once Open
  // returns) can be applied first. Single-threaded: serving has not
  // started, so no locks are taken.
  std::vector<std::string> segment_records;
  auto opened = wal::Wal::Open(
      dir, options,
      [&segment_records](std::string_view payload) {
        segment_records.emplace_back(payload);
      },
      &wal_recovery_);
  if (!opened.ok()) return opened.status();
  if (wal_recovery_.has_checkpoint) {
    std::string_view in = wal_recovery_.checkpoint;
    double revenue = 0.0;
    uint64_t count = 0;
    if (!ReadScalar(&in, &revenue) || !ReadScalar(&in, &count)) {
      return InternalError("ledger checkpoint is malformed");
    }
    revenue_ = revenue;
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t size = 0;
      if (!ReadScalar(&in, &size) || in.size() < size ||
          !restore(in.substr(0, size), /*charge=*/false)) {
        return InternalError("ledger checkpoint is malformed");
      }
      in.remove_prefix(size);
    }
  }
  for (const std::string& bytes : segment_records) {
    if (!restore(bytes, /*charge=*/true)) {
      // The WAL's checksum admitted the record, so a decode failure is
      // version skew or a writer bug, not bit rot — refuse to serve on a
      // ledger we cannot faithfully rebuild.
      return InternalError("durable sale record is malformed");
    }
  }
  wal_ = std::move(opened).value();
  return Status::OK();
}

Status FulfillmentEngine::CheckpointLedger() {
  if (wal_ == nullptr) return Status::OK();
  // Held across the WAL checkpoint: any sale charged after this point
  // appends to the post-rotation segment, so the checkpoint + surviving
  // segments always cover every acked sale (no append can land in a
  // segment the checkpoint is about to compact away).
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  return wal_->Checkpoint(SerializeLedgerLocked());
}

Status FulfillmentEngine::Shutdown() {
  if (wal_ == nullptr) return Status::OK();
  MBP_RETURN_IF_ERROR(wal_->Sync());
  return CheckpointLedger();
}

}  // namespace mbp::serving
