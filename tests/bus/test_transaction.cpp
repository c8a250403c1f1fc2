#include "bus/transaction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "bus/system_bus.hpp"
#include "sim/kernel.hpp"
#include "util/ring.hpp"

namespace secbus::bus {
namespace {

TEST(Transaction, MakeReadShape) {
  const BusTransaction t = make_read(2, 0x1000, DataFormat::kWord, 4);
  EXPECT_EQ(t.master, 2);
  EXPECT_EQ(t.op, BusOp::kRead);
  EXPECT_EQ(t.addr, 0x1000u);
  EXPECT_EQ(t.burst_len, 4);
  EXPECT_EQ(t.payload_bytes(), 16u);
  EXPECT_EQ(t.payload_bits(), 128u);
  EXPECT_EQ(t.end_addr(), 0x1010u);
  EXPECT_EQ(t.data.size(), 16u);
  EXPECT_FALSE(t.is_write());
  EXPECT_EQ(t.status, TransStatus::kPending);
  EXPECT_FALSE(t.failed());
}

TEST(Transaction, MakeWriteDerivesBurstFromPayload) {
  const BusTransaction t =
      make_write(1, 0x2000, std::vector<std::uint8_t>(24, 0xAB),
                 DataFormat::kWord);
  EXPECT_TRUE(t.is_write());
  EXPECT_EQ(t.burst_len, 6);  // 24 bytes / 4-byte beats
  EXPECT_EQ(t.payload_bytes(), 24u);
}

TEST(Transaction, ByteAndHalfWordFormats) {
  const BusTransaction b =
      make_write(0, 0x10, std::vector<std::uint8_t>(3, 1), DataFormat::kByte);
  EXPECT_EQ(b.burst_len, 3);
  const BusTransaction h =
      make_write(0, 0x10, std::vector<std::uint8_t>(6, 1), DataFormat::kHalfWord);
  EXPECT_EQ(h.burst_len, 3);
  EXPECT_EQ(beat_bytes(DataFormat::kByte), 1u);
  EXPECT_EQ(beat_bytes(DataFormat::kHalfWord), 2u);
  EXPECT_EQ(beat_bytes(DataFormat::kWord), 4u);
}

TEST(Transaction, FailedStatuses) {
  BusTransaction t = make_read(0, 0);
  for (TransStatus s : {TransStatus::kDecodeError, TransStatus::kSlaveError,
                        TransStatus::kSecurityViolation,
                        TransStatus::kIntegrityError}) {
    t.status = s;
    EXPECT_TRUE(t.failed());
  }
  t.status = TransStatus::kOk;
  EXPECT_FALSE(t.failed());
}

TEST(Transaction, DescribeMentionsKeyFields) {
  BusTransaction t = make_read(3, 0xDEAD0000, DataFormat::kHalfWord, 2);
  t.id = 99;
  const std::string text = t.describe();
  EXPECT_NE(text.find("m3"), std::string::npos);
  EXPECT_NE(text.find("read"), std::string::npos);
  EXPECT_NE(text.find("dead0000"), std::string::npos);
  EXPECT_NE(text.find("16-bit"), std::string::npos);
}

TEST(Transaction, TransIdEncodesMasterAndSequence) {
  const auto id = make_trans_id(7, 123);
  EXPECT_EQ(id >> 48, 7u);
  EXPECT_EQ(id & 0xFFFFFFFFFFFFULL, 123u);
  EXPECT_NE(make_trans_id(1, 5), make_trans_id(2, 5));
  EXPECT_NE(make_trans_id(1, 5), make_trans_id(1, 6));
}

TEST(Transaction, StatusNames) {
  EXPECT_STREQ(to_string(TransStatus::kOk), "ok");
  EXPECT_STREQ(to_string(TransStatus::kSecurityViolation),
               "security_violation");
  EXPECT_STREQ(to_string(TransStatus::kIntegrityError), "integrity_error");
  EXPECT_STREQ(to_string(BusOp::kWrite), "write");
  EXPECT_STREQ(to_string(DataFormat::kWord), "32-bit");
}

TEST(Ring, FifoOrderAcrossWrapAround) {
  util::Ring<int> ring;
  std::deque<int> reference;
  int next = 0;
  // Depth oscillates between 0 and 3, so the head laps a 4-slot buffer
  // many times without ever growing it.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      ring.push_back(next);
      reference.push_back(next++);
    }
    while (reference.size() > static_cast<std::size_t>(round % 2)) {
      ASSERT_EQ(ring.front(), reference.front());
      ring.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(ring.size(), reference.size());
  }
  EXPECT_EQ(ring.capacity(), 4u);
}

TEST(Ring, GrowsWhileWrapped) {
  util::Ring<int> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();
  ring.push_back(4);
  ring.push_back(5);  // full, head at slot 2: the live span wraps
  ASSERT_EQ(ring.capacity(), 4u);
  ring.push_back(6);  // grows
  EXPECT_EQ(ring.capacity(), 8u);
  std::vector<int> out;
  for (std::size_t i = 0; i < ring.size(); ++i) out.push_back(ring[i]);
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4, 5, 6}));
  for (int expected = 2; expected <= 6; ++expected) {
    ASSERT_EQ(ring.front(), expected);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, ClearKeepsCapacity) {
  util::Ring<int> ring;
  for (int i = 0; i < 9; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), 16u);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 16u);
  ring.push_back(42);
  EXPECT_EQ(ring.front(), 42);
}

TEST(Ring, ReserveAllocatesAheadOfPushes) {
  util::Ring<int> ring;
  ring.reserve(5);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 8; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.back(), 7);
  ring.reserve(3);
  EXPECT_EQ(ring.capacity(), 8u);
}

// `n` bytes counting up from `seed`.
std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed + i);
  }
  return bytes;
}

// Sizes on both sides of the inline buffer's edge.
constexpr std::size_t kPayloadSizes[] = {0, 1, kPayloadInlineBytes,
                                         kPayloadInlineBytes + 1, 128};

TEST(Payload, MoveConstructTakesTheBytesAndEmptiesTheSource) {
  for (const std::size_t n : kPayloadSizes) {
    const std::vector<std::uint8_t> bytes = pattern(n, 3);
    Payload src(bytes);
    Payload dst(std::move(src));
    EXPECT_EQ(dst, bytes) << n;
    EXPECT_TRUE(src.empty()) << n;  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(src.size(), 0u) << n;
  }
}

TEST(Payload, MoveAssignOverEverySizeTakesTheBytes) {
  // Every source size into every destination size, heap-held ones included,
  // so an inline payload lands on a slot whose vector still holds bytes.
  for (const std::size_t from : kPayloadSizes) {
    for (const std::size_t into : kPayloadSizes) {
      const std::vector<std::uint8_t> bytes = pattern(from, 11);
      Payload src(bytes);
      Payload dst(pattern(into, 200));
      dst = std::move(src);
      EXPECT_EQ(dst, bytes) << from << " into " << into;
      EXPECT_TRUE(src.empty()) << from << " into " << into;  // NOLINT
      // The slot serves again: grow it past the inline edge and back.
      dst.resize(from + 70);
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), dst.begin()));
      for (std::size_t i = from; i < dst.size(); ++i) {
        ASSERT_EQ(dst[i], 0) << from << " into " << into << " byte " << i;
      }
      dst = Payload(pattern(5, 1));
      EXPECT_EQ(dst, pattern(5, 1));
    }
  }
}

TEST(Payload, CopiesKeepBothSides) {
  for (const std::size_t n : kPayloadSizes) {
    const std::vector<std::uint8_t> bytes = pattern(n, 90);
    const Payload src(bytes);
    Payload copy(src);
    Payload assigned(pattern(128, 0));
    assigned = src;
    EXPECT_EQ(copy, bytes) << n;
    EXPECT_EQ(assigned, bytes) << n;
    EXPECT_EQ(src, bytes) << n;
  }
}

TEST(Payload, GrowthAfterDefaultConstructionReadsZero) {
  for (const std::size_t n : kPayloadSizes) {
    Payload p;
    EXPECT_TRUE(p.empty());
    p.resize(n);
    EXPECT_EQ(p, std::vector<std::uint8_t>(n, 0)) << n;
  }
  // Growing in steps zeroes only what each step appends.
  Payload p;
  p.resize(3);
  p[0] = 7;
  p.resize(40);
  p.resize(100);
  std::vector<std::uint8_t> expected(100, 0);
  expected[0] = 7;
  EXPECT_EQ(p, expected);
  // A default-constructed transaction's payload reads empty, as does a
  // value-initialised one.
  EXPECT_TRUE(BusTransaction{}.data.empty());
  BusTransaction t;
  EXPECT_EQ(t.payload_bytes(), 4u);
  EXPECT_TRUE(t.data.empty());
}

TEST(TransactionChannel, EntriesAreAbsentBeforeTheirReadyCycle) {
  TransactionChannel from;
  TransactionChannel to;
  EXPECT_FALSE(to.ready(0));
  EXPECT_EQ(to.ready_at(), sim::kNeverCycle);
  from.push(make_read(0, 0x10));
  from.push(make_read(0, 0x20));
  from.push(make_read(0, 0x30));
  EXPECT_TRUE(from.ready(0));  // a plain push is ready at once
  from.move_front_to(to, 12);
  EXPECT_FALSE(to.ready(11));
  EXPECT_TRUE(to.ready(12));
  EXPECT_EQ(to.ready_at(), 12u);
  // A plain hand-off behind it inherits its ready cycle.
  from.move_front_to(to);
  from.move_front_to(to, 15);
  EXPECT_EQ(to.take().addr, 0x10u);
  EXPECT_EQ(to.ready_at(), 12u);
  EXPECT_EQ(to.take().addr, 0x20u);
  EXPECT_EQ(to.ready_at(), 15u);
  EXPECT_FALSE(to.ready(14));
  EXPECT_EQ(to.take().addr, 0x30u);
  EXPECT_EQ(to.ready_at(), sim::kNeverCycle);
}

TEST(TransactionChannelDeathTest, ReadyCyclesNeverDecrease) {
  TransactionChannel from;
  TransactionChannel to;
  from.push(make_read(0, 0x10));
  from.push(make_read(0, 0x20));
  from.move_front_to(to, 20);
  EXPECT_DEATH(from.move_front_to(to, 19), "ready cycles must not decrease");
}

// Pops the channel whenever it holds something; asleep otherwise.
class ChannelReader final : public sim::Component {
 public:
  explicit ChannelReader(TransactionChannel& in)
      : Component("reader"), in_(&in) {
    in.set_consumer(*this);
  }
  void tick(sim::Cycle now) override {
    while (!in_->empty()) popped.emplace_back(now, in_->take());
  }
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const override {
    return in_->empty() ? sim::kNeverCycle : now;
  }

  std::vector<std::pair<sim::Cycle, BusTransaction>> popped;

 private:
  TransactionChannel* in_;
};

// Pushes the scripted transactions into the channel at their cycles.
class ChannelWriter final : public sim::Component {
 public:
  ChannelWriter(TransactionChannel& out,
                std::vector<std::pair<sim::Cycle, BusTransaction>> script)
      : Component("writer"), out_(&out), script_(std::move(script)) {}
  void tick(sim::Cycle now) override {
    while (next_ < script_.size() && script_[next_].first == now) {
      out_->push(script_[next_++].second);
    }
  }
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle /*now*/) const override {
    return next_ < script_.size() ? script_[next_].first : sim::kNeverCycle;
  }

 private:
  TransactionChannel* out_;
  std::vector<std::pair<sim::Cycle, BusTransaction>> script_;
  std::size_t next_ = 0;
};

TEST(TransactionChannel, PushWakesTheRegisteredConsumer) {
  TransactionChannel channel;
  ChannelWriter writer(channel, {{5, make_read(0, 0x10)},
                                 {40, make_read(0, 0x20)}});
  ChannelReader reader(channel);
  sim::SimKernel k;
  k.add(writer);
  k.add(reader);
  k.run(100);
  // The reader sleeps until each push notifies it, then pops in the same
  // cycle (it comes after the writer in tick order).
  ASSERT_EQ(reader.popped.size(), 2u);
  EXPECT_EQ(reader.popped[0].first, 5u);
  EXPECT_EQ(reader.popped[0].second.addr, 0x10u);
  EXPECT_EQ(reader.popped[1].first, 40u);
  EXPECT_EQ(k.ticks_dispatched(), 4u);
}

TEST(TransactionChannel, HeapBackedPayloadSurvivesWrapAndGrowth) {
  TransactionChannel channel;
  std::vector<std::vector<std::uint8_t>> sent;
  std::size_t received = 0;
  // Depth 1..6 with the head moving: pushes land on moved-from slots,
  // wrap, and grow the ring while it is wrapped.
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i <= round % 6; ++i) {
      std::vector<std::uint8_t> bytes(128);
      for (std::size_t b = 0; b < bytes.size(); ++b) {
        bytes[b] = static_cast<std::uint8_t>(sent.size() * 7 + b);
      }
      sent.push_back(bytes);
      channel.push(make_write(1, 0x100, bytes));
    }
    while (channel.size() > 1) {
      ASSERT_FALSE(channel.empty());
      const BusTransaction t = channel.take();
      EXPECT_EQ(t.data, sent[received]);
      EXPECT_EQ(t.burst_len, 32);
      ++received;
    }
  }
  while (!channel.empty()) EXPECT_EQ(channel.take().data, sent[received++]);
  EXPECT_EQ(received, sent.size());
  EXPECT_TRUE(channel.empty());
}

// Services every access in one cycle.
class NullSlave final : public SlaveDevice {
 public:
  AccessResult access(BusTransaction& /*t*/, sim::Cycle /*now*/) override {
    return {1, TransStatus::kOk};
  }
  [[nodiscard]] std::string_view slave_name() const override { return "null"; }
};

TEST(SystemBusBookings, WindowsStayAscendingAndArePruned) {
  NullSlave slave;
  SystemBus bus("bus");
  bus.map_region(0, 0x1000, bus.add_slave(slave), "mem");
  MasterEndpoint& ep = bus.attach_master(0, "m0");
  sim::SimKernel k;
  k.add(bus);
  // Abutting windows [10, 20) [20, 30) and a separate one [40, 50), booked
  // in ascending order from free_at().
  bus.book(bus.free_at(10), 20);
  bus.book(bus.free_at(0), 30);
  bus.book(40, 50);
  EXPECT_EQ(bus.booked_windows(), 3u);
  EXPECT_EQ(bus.booked_until(), 50u);
  k.run(12);
  BusTransaction t = make_read(0, 0x40);
  t.issued_at = k.now();
  ep.request.push(std::move(t));
  k.run(28);  // through cycle 39
  // The request waited out the abutting chain, then was granted at 30.
  ASSERT_FALSE(ep.response.empty());
  const BusTransaction resp = ep.response.take();
  EXPECT_EQ(resp.granted_at, 30u);
  EXPECT_EQ(bus.booked_windows(), 1u);  // [10, 30) pruned, [40, 50) ahead
  k.run(20);
  EXPECT_EQ(bus.booked_windows(), 0u);
  // Booked cycles count busy whether the segment was ticked or skipped;
  // the read held it for 3 more (address, slave, one beat).
  EXPECT_EQ(bus.stats().busy_cycles, 20u + 10u + 3u);
  EXPECT_EQ(bus.stats().idle_cycles, 60u - 33u);
  // Many more book/prune rounds reuse the same few slots.
  for (sim::Cycle i = 0; i < 100; ++i) {
    const sim::Cycle start = bus.free_at(k.now());
    bus.book(start, start + 3);
    k.run(5);
  }
  EXPECT_EQ(bus.booked_windows(), 0u);
}

}  // namespace
}  // namespace secbus::bus
