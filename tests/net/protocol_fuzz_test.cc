// Round-trip and adversarial-input tests for the net wire protocol: every
// frame either decodes to exactly what was encoded, reports "incomplete",
// or fails loudly — a flipped bit must never be acted on. The suite name
// matches scripts/tsan.sh's Net filter.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "net/protocol.h"
#include "random/rng.h"

namespace mbp::net {
namespace {

// Re-seals a frame a corruption test mutated, without going through the
// library's encoder.
void Reseal(std::string* frame) {
  uint32_t frame_len = 0;
  std::memcpy(&frame_len, frame->data(), 4);
  const uint32_t checksum = Fnv1a32(frame->data() + 8, frame_len);
  std::memcpy(frame->data() + 4, &checksum, 4);
}

const uint8_t* Bytes(const std::string& wire) {
  return reinterpret_cast<const uint8_t*>(wire.data());
}

Request RandomRequest(random::Rng& rng) {
  Request request;
  request.verb = static_cast<Verb>(1 + rng.NextBounded(7));
  request.request_id = rng.NextUint64();
  const size_t id_len = rng.NextBounded(20);
  for (size_t i = 0; i < id_len; ++i) {
    request.curve_id.push_back('a' + static_cast<char>(rng.NextBounded(26)));
  }
  if (request.verb == Verb::kPriceAt || request.verb == Verb::kBudgetToX) {
    const size_t n = 1 + rng.NextBounded(8);
    for (size_t i = 0; i < n; ++i) {
      request.args.push_back(rng.NextDouble(0.0, 100.0));
    }
  }
  if (request.verb == Verb::kQuote || request.verb == Verb::kBuy) {
    request.delta = rng.NextDouble(0.01, 10.0);
  }
  if (request.verb == Verb::kBuy || request.verb == Verb::kReplay) {
    request.txn_id = rng.NextUint64();
  }
  if (request.verb == Verb::kBuy && rng.NextBounded(2) == 0) {
    const size_t token_len = 1 + rng.NextBounded(64);
    for (size_t i = 0; i < token_len; ++i) {
      request.token.push_back(static_cast<char>(rng.NextBounded(256)));
    }
  }
  return request;
}

TEST(NetProtocolFuzzTest, RequestRoundTripAllVerbs) {
  random::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const Request request = RandomRequest(rng);
    std::string wire;
    EncodeRequest(request, &wire);
    Request decoded;
    const auto consumed = DecodeRequest(Bytes(wire), wire.size(), &decoded);
    ASSERT_TRUE(consumed.ok()) << consumed.status();
    EXPECT_EQ(*consumed, wire.size());
    EXPECT_EQ(decoded.verb, request.verb);
    EXPECT_EQ(decoded.request_id, request.request_id);
    EXPECT_EQ(decoded.curve_id, request.curve_id);
    EXPECT_EQ(decoded.args, request.args);
    EXPECT_EQ(decoded.delta, request.delta);
    EXPECT_EQ(decoded.txn_id, request.txn_id);
    EXPECT_EQ(decoded.token, request.token);
  }
}

TEST(NetProtocolFuzzTest, ResponseRoundTripAllShapes) {
  random::Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    Response response;
    response.verb = static_cast<Verb>(1 + rng.NextBounded(7));
    response.request_id = rng.NextUint64();
    if (rng.NextBounded(3) == 0) {
      response.code = StatusCode::kNotFound;
      response.error_message = "curve 'gone' is not being served";
    } else {
      switch (response.verb) {
        case Verb::kPriceAt:
        case Verb::kBudgetToX: {
          const size_t n = 1 + rng.NextBounded(16);
          for (size_t i = 0; i < n; ++i) {
            response.values.push_back(rng.NextDouble(0.0, 1e6));
          }
          break;
        }
        case Verb::kSnapshotInfo:
          response.info.version = rng.NextUint64();
          response.info.stamp = rng.NextUint64();
          response.info.num_knots = rng.NextBounded(100);
          response.info.x_max = rng.NextDouble(1.0, 100.0);
          response.info.max_price = rng.NextDouble(1.0, 1e4);
          break;
        case Verb::kStats:
          response.stats.requests_ok = rng.NextUint64();
          response.stats.queries = rng.NextUint64();
          response.stats.requests_shed = rng.NextUint64();
          response.stats.deadline_drops = rng.NextUint64();
          response.stats.connections_killed = rng.NextUint64();
          response.stats.connections_refused = rng.NextUint64();
          response.stats.faults_injected = rng.NextUint64();
          response.stats.write_queue_peak_bytes = rng.NextUint64();
          response.stats.latency.count = 3;
          response.stats.latency.sum_micros = 42.5;
          response.stats.latency.buckets[2] = 3;
          response.stats.write_queue_bytes.count = 7;
          response.stats.write_queue_bytes.sum_micros = 1024.0;
          response.stats.write_queue_bytes.buckets[10] = 7;
          for (size_t i = 0, n = rng.NextBounded(4); i < n; ++i) {
            response.stats.faults.push_back(
                FaultCount{"net.recv.point" + std::to_string(i),
                           rng.NextUint64()});
          }
          response.stats.requests_by_verb[1] = rng.NextUint64();
          response.stats.requests_by_verb[6] = rng.NextUint64();
          response.stats.buys_ok = rng.NextUint64();
          response.stats.model_cache_bytes = rng.NextUint64();
          response.stats.transactions_recorded = rng.NextUint64();
          response.stats.revenue = rng.NextDouble(0.0, 1e9);
          response.stats.wal_appends = rng.NextUint64();
          response.stats.wal_fsyncs = rng.NextUint64();
          response.stats.wal_bytes = rng.NextUint64();
          response.stats.recovery_records = rng.NextUint64();
          response.stats.recovery_torn_tail = rng.NextUint64();
          response.stats.recovery_ms = rng.NextUint64();
          response.stats.fulfillment_latency.count = 5;
          response.stats.fulfillment_latency.sum_micros = 99.25;
          response.stats.fulfillment_latency.buckets[4] = 5;
          break;
        case Verb::kQuote:
          response.quote.price = rng.NextDouble(0.0, 1e6);
          response.quote.delta = rng.NextDouble(0.01, 10.0);
          response.quote.expires_at_micros = rng.NextUint64();
          for (size_t i = 0, n = 1 + rng.NextBounded(48); i < n; ++i) {
            response.quote.token.push_back(
                static_cast<char>(rng.NextBounded(256)));
          }
          break;
        case Verb::kBuy:
        case Verb::kReplay: {
          response.buy.record.txn_id = rng.NextUint64();
          response.buy.record.curve_ref =
              static_cast<uint32_t>(rng.NextUint64());
          response.buy.record.delta = rng.NextDouble(0.01, 10.0);
          response.buy.record.price = rng.NextDouble(0.0, 1e6);
          response.buy.record.seed_commitment = rng.NextUint64();
          const size_t n = 1 + rng.NextBounded(32);
          for (size_t i = 0; i < n; ++i) {
            response.buy.weights.push_back(rng.NextDouble(-10.0, 10.0));
          }
          break;
        }
      }
    }
    std::string wire;
    EncodeResponse(response, &wire);
    Response decoded;
    const auto consumed = DecodeResponse(Bytes(wire), wire.size(), &decoded);
    ASSERT_TRUE(consumed.ok()) << consumed.status();
    EXPECT_EQ(*consumed, wire.size());
    EXPECT_EQ(decoded.verb, response.verb);
    EXPECT_EQ(decoded.request_id, response.request_id);
    EXPECT_EQ(decoded.code, response.code);
    EXPECT_EQ(decoded.error_message, response.error_message);
    EXPECT_EQ(decoded.values, response.values);
    EXPECT_EQ(decoded.info.version, response.info.version);
    EXPECT_EQ(decoded.info.stamp, response.info.stamp);
    EXPECT_EQ(decoded.stats.requests_ok, response.stats.requests_ok);
    EXPECT_EQ(decoded.stats.latency.count, response.stats.latency.count);
    EXPECT_EQ(decoded.stats.latency.buckets, response.stats.latency.buckets);
    EXPECT_EQ(decoded.stats.requests_shed, response.stats.requests_shed);
    EXPECT_EQ(decoded.stats.deadline_drops, response.stats.deadline_drops);
    EXPECT_EQ(decoded.stats.connections_killed,
              response.stats.connections_killed);
    EXPECT_EQ(decoded.stats.connections_refused,
              response.stats.connections_refused);
    EXPECT_EQ(decoded.stats.faults_injected, response.stats.faults_injected);
    EXPECT_EQ(decoded.stats.write_queue_peak_bytes,
              response.stats.write_queue_peak_bytes);
    EXPECT_EQ(decoded.stats.write_queue_bytes.count,
              response.stats.write_queue_bytes.count);
    EXPECT_EQ(decoded.stats.write_queue_bytes.buckets,
              response.stats.write_queue_bytes.buckets);
    EXPECT_EQ(decoded.stats.faults, response.stats.faults);
    EXPECT_EQ(decoded.stats.requests_by_verb, response.stats.requests_by_verb);
    EXPECT_EQ(decoded.stats.buys_ok, response.stats.buys_ok);
    EXPECT_EQ(decoded.stats.model_cache_bytes,
              response.stats.model_cache_bytes);
    EXPECT_EQ(decoded.stats.transactions_recorded,
              response.stats.transactions_recorded);
    EXPECT_EQ(decoded.stats.revenue, response.stats.revenue);
    EXPECT_EQ(decoded.stats.wal_appends, response.stats.wal_appends);
    EXPECT_EQ(decoded.stats.wal_fsyncs, response.stats.wal_fsyncs);
    EXPECT_EQ(decoded.stats.wal_bytes, response.stats.wal_bytes);
    EXPECT_EQ(decoded.stats.recovery_records,
              response.stats.recovery_records);
    EXPECT_EQ(decoded.stats.recovery_torn_tail,
              response.stats.recovery_torn_tail);
    EXPECT_EQ(decoded.stats.recovery_ms, response.stats.recovery_ms);
    EXPECT_EQ(decoded.stats.fulfillment_latency.count,
              response.stats.fulfillment_latency.count);
    EXPECT_EQ(decoded.stats.fulfillment_latency.buckets,
              response.stats.fulfillment_latency.buckets);
    EXPECT_EQ(decoded.quote.price, response.quote.price);
    EXPECT_EQ(decoded.quote.delta, response.quote.delta);
    EXPECT_EQ(decoded.quote.expires_at_micros,
              response.quote.expires_at_micros);
    EXPECT_EQ(decoded.quote.token, response.quote.token);
    EXPECT_EQ(decoded.buy.record, response.buy.record);
    EXPECT_EQ(decoded.buy.weights, response.buy.weights);
  }
}

TEST(NetProtocolFuzzTest, EveryStrictPrefixIsIncomplete) {
  random::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::string wire;
    EncodeRequest(RandomRequest(rng), &wire);
    for (size_t prefix = 0; prefix < wire.size(); ++prefix) {
      Request decoded;
      const auto consumed = DecodeRequest(Bytes(wire), prefix, &decoded);
      ASSERT_TRUE(consumed.ok())
          << "prefix " << prefix << ": " << consumed.status();
      EXPECT_EQ(*consumed, 0u) << "prefix " << prefix;
    }
  }
}

// Exhaustive truncation over RESPONSE frames (the request side is covered
// above): a frame cut at every possible byte offset must read as
// "incomplete", never as a decoded frame and never as a crash — this is
// exactly what a short read or injected connection reset hands the client.
TEST(NetProtocolFuzzTest, EveryResponseTruncationIsIncomplete) {
  random::Rng rng(29);
  for (int trial = 0; trial < 25; ++trial) {
    Response response;
    response.verb = Verb::kPriceAt;
    response.request_id = rng.NextUint64();
    const size_t n = 1 + rng.NextBounded(12);
    for (size_t i = 0; i < n; ++i) {
      response.values.push_back(rng.NextDouble(0.0, 1e6));
    }
    std::string wire;
    EncodeResponse(response, &wire);
    for (size_t prefix = 0; prefix < wire.size(); ++prefix) {
      Response decoded;
      const auto consumed = DecodeResponse(Bytes(wire), prefix, &decoded);
      ASSERT_TRUE(consumed.ok())
          << "prefix " << prefix << ": " << consumed.status();
      EXPECT_EQ(*consumed, 0u) << "prefix " << prefix;
    }
  }
}

// Exhaustive single-BIT-flip fuzz over header + payload, both directions:
// stricter than the byte-level test because a lone flipped bit is the
// realistic link/memory corruption. Anything past the 4-byte length
// prefix is under the checksum, so a flip there MUST error (close the
// connection); a flip inside the length prefix may also read as
// "incomplete" while the decoder waits for bytes that never come. Either
// way a successful decode of corrupt bytes can never happen.
TEST(NetProtocolFuzzTest, SingleBitFlipNeverDecodes) {
  random::Rng rng(31);
  std::string request_wire;
  EncodeRequest(RandomRequest(rng), &request_wire);
  Response response;
  response.verb = Verb::kBudgetToX;
  response.request_id = rng.NextUint64();
  response.values = {1.0, 2.5, 1e6};
  std::string response_wire;
  EncodeResponse(response, &response_wire);

  for (size_t i = 0; i < request_wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = request_wire;
      corrupt[i] ^= static_cast<char>(1 << bit);
      Request decoded;
      const auto consumed =
          DecodeRequest(Bytes(corrupt), corrupt.size(), &decoded);
      EXPECT_FALSE(consumed.ok() && *consumed > 0)
          << "request byte " << i << " bit " << bit << " decoded";
      if (i >= 4) {  // under the checksum: must be a hard error
        EXPECT_FALSE(consumed.ok() && *consumed == 0)
            << "request byte " << i << " bit " << bit
            << " read as incomplete despite checksum coverage";
      }
    }
  }
  for (size_t i = 0; i < response_wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = response_wire;
      corrupt[i] ^= static_cast<char>(1 << bit);
      Response decoded;
      const auto consumed =
          DecodeResponse(Bytes(corrupt), corrupt.size(), &decoded);
      EXPECT_FALSE(consumed.ok() && *consumed > 0)
          << "response byte " << i << " bit " << bit << " decoded";
      if (i >= 4) {
        EXPECT_FALSE(consumed.ok() && *consumed == 0)
            << "response byte " << i << " bit " << bit
            << " read as incomplete despite checksum coverage";
      }
    }
  }
}

TEST(NetProtocolFuzzTest, SingleByteCorruptionNeverDecodes) {
  random::Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    std::string wire;
    EncodeRequest(RandomRequest(rng), &wire);
    for (size_t i = 0; i < wire.size(); ++i) {
      std::string corrupt = wire;
      corrupt[i] ^= static_cast<char>(1 + rng.NextBounded(255));
      Request decoded;
      const auto consumed =
          DecodeRequest(Bytes(corrupt), corrupt.size(), &decoded);
      // A corrupted length prefix may legitimately read as "incomplete";
      // everything else must fail the checksum or validation. What can
      // never happen is a successful decode.
      EXPECT_FALSE(consumed.ok() && *consumed > 0)
          << "byte " << i << " corruption decoded successfully";
    }
  }
}

TEST(NetProtocolFuzzTest, RandomGarbageNeverDecodes) {
  random::Rng rng(19);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t size = rng.NextBounded(64);
    std::string garbage(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      garbage[i] = static_cast<char>(rng.NextBounded(256));
    }
    Request decoded;
    const auto consumed = DecodeRequest(Bytes(garbage), size, &decoded);
    EXPECT_FALSE(consumed.ok() && *consumed > 0);
  }
}

TEST(NetProtocolFuzzTest, PipelinedFramesDecodeSequentially) {
  random::Rng rng(23);
  std::vector<Request> requests;
  std::string wire;
  for (int i = 0; i < 20; ++i) {
    requests.push_back(RandomRequest(rng));
    EncodeRequest(requests.back(), &wire);
  }
  size_t offset = 0;
  for (const Request& expected : requests) {
    Request decoded;
    const auto consumed =
        DecodeRequest(Bytes(wire) + offset, wire.size() - offset, &decoded);
    ASSERT_TRUE(consumed.ok());
    ASSERT_GT(*consumed, 0u);
    offset += *consumed;
    EXPECT_EQ(decoded.request_id, expected.request_id);
    EXPECT_EQ(decoded.curve_id, expected.curve_id);
    EXPECT_EQ(decoded.args, expected.args);
  }
  EXPECT_EQ(offset, wire.size());
}

TEST(NetProtocolFuzzTest, EmptyArgsOnVectorVerbRejected) {
  Request request;
  request.verb = Verb::kPriceAt;  // args deliberately empty
  std::string wire;
  EncodeRequest(request, &wire);
  Request decoded;
  const auto consumed = DecodeRequest(Bytes(wire), wire.size(), &decoded);
  EXPECT_FALSE(consumed.ok());
}

TEST(NetProtocolFuzzTest, OversizedCurveIdTruncatesTo255) {
  Request request;
  request.verb = Verb::kSnapshotInfo;
  request.curve_id.assign(1000, 'x');
  std::string wire;
  EncodeRequest(request, &wire);
  Request decoded;
  const auto consumed = DecodeRequest(Bytes(wire), wire.size(), &decoded);
  ASSERT_TRUE(consumed.ok());
  ASSERT_GT(*consumed, 0u);
  EXPECT_EQ(decoded.curve_id.size(), 255u);
}

TEST(NetProtocolFuzzTest, HeaderFieldValidation) {
  Request request;
  request.verb = Verb::kSnapshotInfo;
  request.curve_id = "curve";
  std::string wire;
  EncodeRequest(request, &wire);

  {  // Wrong protocol version (re-sealed, so the checksum passes).
    std::string bad = wire;
    bad[8] = 99;
    Reseal(&bad);
    Request decoded;
    EXPECT_FALSE(DecodeRequest(Bytes(bad), bad.size(), &decoded).ok());
  }
  {  // Unknown verb byte.
    std::string bad = wire;
    bad[9] = 77;
    Reseal(&bad);
    Request decoded;
    EXPECT_FALSE(DecodeRequest(Bytes(bad), bad.size(), &decoded).ok());
  }
  {  // Requests must carry an OK status byte.
    std::string bad = wire;
    bad[10] = 2;
    Reseal(&bad);
    Request decoded;
    EXPECT_FALSE(DecodeRequest(Bytes(bad), bad.size(), &decoded).ok());
  }
  {  // Reserved byte must be zero.
    std::string bad = wire;
    bad[11] = 1;
    Reseal(&bad);
    Request decoded;
    EXPECT_FALSE(DecodeRequest(Bytes(bad), bad.size(), &decoded).ok());
  }
  {  // Trailing payload byte: lengthen the frame and re-seal. The frame
     // is internally consistent, so only payload-structure validation
     // can catch it.
    std::string bad = wire;
    bad.push_back('\0');
    uint32_t frame_len = 0;
    std::memcpy(&frame_len, bad.data(), 4);
    ++frame_len;
    std::memcpy(bad.data(), &frame_len, 4);
    Reseal(&bad);
    Request decoded;
    EXPECT_FALSE(DecodeRequest(Bytes(bad), bad.size(), &decoded).ok());
  }
  {  // Absurd length prefix fails fast instead of waiting for 2 GiB.
    std::string bad = wire;
    const uint32_t huge = 1u << 30;
    std::memcpy(bad.data(), &huge, 4);
    Request decoded;
    EXPECT_FALSE(DecodeRequest(Bytes(bad), bad.size(), &decoded).ok());
  }
}

}  // namespace
}  // namespace mbp::net
