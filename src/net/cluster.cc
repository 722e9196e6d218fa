#include "net/cluster.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace mbp::net {
namespace {

// Ring points and routing keys start from FNV-1a-64: 64-bit (unlike the
// wire checksum's 32) because ring points must be collision-sparse across
// num_nodes * vnodes entries. Ring positions need uniform HIGH bits (the
// ring is ordered by the full hash), but FNV's trailing bytes only
// propagate up to bit ~48 — the prime is ~2^40 — so keys sharing a long
// prefix ("curve-000001xx", "shard-3#v") cluster into one arc and routing
// degenerates. A murmur-style finalizer restores full-width avalanche.
// Part of the ring protocol: every process of a fleet computes this same
// function.
uint64_t RingHash(std::string_view bytes) {
  uint64_t h = Fnv1a64(bytes);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

StatusOr<std::vector<Endpoint>> ParseEndpoints(std::string_view csv) {
  std::vector<Endpoint> endpoints;
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string_view item = csv.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      return InvalidArgumentError("empty endpoint in list '" +
                                  std::string(csv) + "'");
    }
    // Shared-memory endpoints carry the whole URI as the host; port 0
    // marks them (PriceClient ignores it for shm://).
    if (item.rfind("shm://", 0) == 0) {
      if (item.size() == 6) {
        return InvalidArgumentError("empty path in shm endpoint '" +
                                    std::string(item) + "'");
      }
      Endpoint ep;
      ep.host = std::string(item);
      ep.port = 0;
      for (const Endpoint& other : endpoints) {
        if (other.host == ep.host) {
          return InvalidArgumentError("duplicate endpoint '" +
                                      std::string(item) + "'");
        }
      }
      endpoints.push_back(std::move(ep));
      if (comma == csv.size()) break;
      continue;
    }
    const size_t colon = item.rfind(':');
    if (colon == std::string_view::npos) {
      return InvalidArgumentError("endpoint '" + std::string(item) +
                                  "' is not host:port");
    }
    Endpoint ep;
    ep.host = colon == 0 ? "127.0.0.1" : std::string(item.substr(0, colon));
    const std::string_view port_str = item.substr(colon + 1);
    uint32_t port = 0;
    if (port_str.empty() || port_str.size() > 5) {
      return InvalidArgumentError("bad port in endpoint '" +
                                  std::string(item) + "'");
    }
    for (const char c : port_str) {
      if (c < '0' || c > '9') {
        return InvalidArgumentError("bad port in endpoint '" +
                                    std::string(item) + "'");
      }
      port = port * 10 + static_cast<uint32_t>(c - '0');
    }
    if (port == 0 || port > 65535) {
      return InvalidArgumentError("port out of range in endpoint '" +
                                  std::string(item) + "'");
    }
    ep.port = static_cast<uint16_t>(port);
    for (const Endpoint& other : endpoints) {
      if (other.host == ep.host && other.port == ep.port) {
        return InvalidArgumentError("duplicate endpoint '" +
                                    std::string(item) + "'");
      }
    }
    endpoints.push_back(std::move(ep));
    if (comma == csv.size()) break;
  }
  if (endpoints.empty()) return InvalidArgumentError("empty endpoint list");
  return endpoints;
}

std::string EndpointLabel(const Endpoint& endpoint) {
  if (endpoint.host.rfind("shm://", 0) == 0) return endpoint.host;
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

HashRing::HashRing(const std::vector<std::string>& node_labels,
                   size_t vnodes)
    : num_nodes_(node_labels.size()) {
  MBP_CHECK_GE(num_nodes_, size_t{1});
  MBP_CHECK_GE(vnodes, size_t{1});
  ring_.reserve(num_nodes_ * vnodes);
  for (size_t node = 0; node < num_nodes_; ++node) {
    for (size_t v = 0; v < vnodes; ++v) {
      const std::string point_label =
          node_labels[node] + "#" + std::to_string(v);
      ring_.push_back(Point{RingHash(point_label),
                            static_cast<uint32_t>(node)});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    // Tie-break on node index so equal hashes (astronomically rare but
    // possible) still sort identically on every process.
    return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
  });
}

size_t HashRing::Route(std::string_view key, size_t attempt) const {
  MBP_CHECK_LT(attempt, num_nodes_);
  const uint64_t h = RingHash(key);
  // First ring point clockwise from (>=) the key's hash, wrapping.
  size_t start = std::lower_bound(ring_.begin(), ring_.end(), h,
                                  [](const Point& p, uint64_t v) {
                                    return p.hash < v;
                                  }) -
                 ring_.begin();
  if (start == ring_.size()) start = 0;
  // Walk clockwise collecting distinct nodes until the attempt-th one.
  // Bounded scratch: attempt < num_nodes <= seen capacity via the walk
  // revisiting at most the whole ring once.
  uint32_t seen[64];
  size_t num_seen = 0;
  MBP_CHECK_LE(num_nodes_, sizeof(seen) / sizeof(seen[0]));
  for (size_t step = 0; step < ring_.size(); ++step) {
    const uint32_t node = ring_[(start + step) % ring_.size()].node;
    bool is_new = true;
    for (size_t i = 0; i < num_seen; ++i) {
      if (seen[i] == node) {
        is_new = false;
        break;
      }
    }
    if (!is_new) continue;
    if (num_seen == attempt) return node;
    seen[num_seen++] = node;
  }
  // Unreachable: the ring contains every node.
  MBP_CHECK(false);
  return 0;
}

bool HashRing::Owns(std::string_view key, size_t node,
                    size_t replicas) const {
  const size_t r = std::min(replicas, num_nodes_);
  for (size_t attempt = 0; attempt < r; ++attempt) {
    if (Route(key, attempt) == node) return true;
  }
  return false;
}

StatusOr<std::unique_ptr<ClusterPriceClient>> ClusterPriceClient::Create(
    std::vector<Endpoint> endpoints, ClusterClientOptions options) {
  if (endpoints.empty()) {
    return InvalidArgumentError("cluster client needs at least one endpoint");
  }
  if (endpoints.size() > 64) {
    return InvalidArgumentError("cluster client supports at most 64 endpoints");
  }
  std::vector<std::string> labels = options.node_labels;
  if (labels.empty()) {
    labels.reserve(endpoints.size());
    for (const Endpoint& ep : endpoints) labels.push_back(EndpointLabel(ep));
  } else if (labels.size() != endpoints.size()) {
    return InvalidArgumentError(
        "node_labels must match endpoints one-to-one");
  }
  HashRing ring(labels, options.vnodes == 0 ? 64 : options.vnodes);
  return std::unique_ptr<ClusterPriceClient>(new ClusterPriceClient(
      std::move(endpoints), std::move(options), std::move(ring)));
}

ClusterPriceClient::ClusterPriceClient(std::vector<Endpoint> endpoints,
                                       ClusterClientOptions options,
                                       HashRing ring)
    : endpoints_(std::move(endpoints)),
      options_(std::move(options)),
      ring_(std::move(ring)),
      clients_(endpoints_.size()),
      cooldown_until_(endpoints_.size(), Clock::time_point::min()) {}

size_t ClusterPriceClient::RouteOf(std::string_view curve_id) const {
  return ring_.Route(curve_id.empty()
                         ? std::string_view(options_.default_curve_id)
                         : curve_id,
                     0);
}

bool ClusterPriceClient::Cooling(size_t endpoint) const {
  return Clock::now() < cooldown_until_[endpoint];
}

void ClusterPriceClient::CoolDown(size_t endpoint) {
  cooldown_until_[endpoint] =
      Clock::now() + std::chrono::milliseconds(options_.cooldown_ms);
}

StatusOr<PriceClient*> ClusterPriceClient::ClientFor(size_t endpoint) {
  if (clients_[endpoint] == nullptr) {
    MBP_ASSIGN_OR_RETURN(clients_[endpoint],
                         PriceClient::Connect(endpoints_[endpoint].host,
                                              endpoints_[endpoint].port,
                                              options_.client));
  }
  return clients_[endpoint].get();
}

namespace {

// A failure class that says "try another endpoint": the transport or the
// endpoint itself is unhealthy. Application answers pass through.
bool IsFailoverError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

}  // namespace

template <typename Result, typename Invoke>
StatusOr<Result> ClusterPriceClient::WithFailover(std::string_view curve_id,
                                                  const Invoke& invoke) {
  const std::string_view key =
      curve_id.empty() ? std::string_view(options_.default_curve_id)
                       : curve_id;
  const size_t attempts =
      options_.max_endpoint_attempts == 0
          ? endpoints_.size()
          : std::min(options_.max_endpoint_attempts, endpoints_.size());
  Status last = UnavailableError("no endpoint attempts made");
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    const size_t endpoint = ring_.Route(key, attempt);
    // Skip a cooling endpoint only while a later candidate remains: the
    // last candidate is always tried, so a fully-cooling fleet degrades
    // to "try the owner anyway" instead of failing without a packet.
    if (Cooling(endpoint) && attempt + 1 < attempts) {
      ++telemetry_.cooldown_skips;
      continue;
    }
    if (attempt > 0) ++telemetry_.failovers;
    auto client = ClientFor(endpoint);
    if (!client.ok()) {
      ++telemetry_.endpoint_errors;
      CoolDown(endpoint);
      last = client.status();
      continue;
    }
    StatusOr<Result> result = invoke(*client);
    if (result.ok()) return result;
    if (!IsFailoverError(result.status())) return result;
    // The endpoint's own retry ladder already ran inside PriceClient;
    // a surviving failover-class error means the endpoint is unhealthy.
    // Drop the cached client: its socket may be wedged, and the next
    // attempt against this endpoint should start from a clean connect.
    ++telemetry_.endpoint_errors;
    CoolDown(endpoint);
    clients_[endpoint] = nullptr;
    last = result.status();
  }
  return last;
}

StatusOr<double> ClusterPriceClient::PriceAt(const std::string& curve_id,
                                             double x) {
  return WithFailover<double>(curve_id, [&](PriceClient* client) {
    return client->PriceAt(curve_id, x);
  });
}

StatusOr<std::vector<double>> ClusterPriceClient::PriceBatch(
    const std::string& curve_id, const std::vector<double>& xs) {
  return WithFailover<std::vector<double>>(
      curve_id,
      [&](PriceClient* client) { return client->PriceBatch(curve_id, xs); });
}

StatusOr<double> ClusterPriceClient::BudgetToX(const std::string& curve_id,
                                               double budget) {
  return WithFailover<double>(curve_id, [&](PriceClient* client) {
    return client->BudgetToX(curve_id, budget);
  });
}

StatusOr<SnapshotInfoPayload> ClusterPriceClient::SnapshotInfo(
    const std::string& curve_id) {
  return WithFailover<SnapshotInfoPayload>(
      curve_id,
      [&](PriceClient* client) { return client->SnapshotInfo(curve_id); });
}

StatusOr<StatsPayload> ClusterPriceClient::Stats(size_t endpoint) {
  if (endpoint >= endpoints_.size()) {
    return InvalidArgumentError("endpoint index out of range");
  }
  MBP_ASSIGN_OR_RETURN(PriceClient * client, ClientFor(endpoint));
  return client->Stats();
}

StatusOr<QuotePayload> ClusterPriceClient::Quote(const std::string& curve_id,
                                                 double delta) {
  return WithFailover<QuotePayload>(curve_id, [&](PriceClient* client) {
    return client->Quote(curve_id, delta);
  });
}

StatusOr<BuyPayload> ClusterPriceClient::Buy(const std::string& curve_id,
                                             double delta, uint64_t txn_id,
                                             const std::string& token) {
  // Pin the id before the ladder: a failover attempt must present the
  // SAME transaction id so each endpoint's ledger can dedupe it.
  const uint64_t txn = txn_id == 0 ? NextTransactionId() : txn_id;
  return WithFailover<BuyPayload>(curve_id, [&](PriceClient* client) {
    return client->Buy(curve_id, delta, txn, token);
  });
}

StatusOr<BuyPayload> ClusterPriceClient::Replay(const std::string& curve_id,
                                                uint64_t txn_id) {
  return WithFailover<BuyPayload>(curve_id, [&](PriceClient* client) {
    return client->Replay(txn_id);
  });
}

uint64_t ClusterPriceClient::NextTransactionId() {
  if (txn_base_ == 0) {
    const uint64_t now = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    txn_base_ =
        HashMix64((static_cast<uint64_t>(getpid()) << 32) ^ now ^
                  reinterpret_cast<uintptr_t>(this));
  }
  const uint64_t id = HashMix64(txn_base_ ^ ++txn_seq_);
  return id == 0 ? 1 : id;
}

}  // namespace mbp::net
