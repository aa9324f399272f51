#include <gtest/gtest.h>

#include <sstream>

#include "snapshot/signal_db.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/vcd.hpp"
#include "util/rng.hpp"

namespace specure::snapshot {
namespace {

SignalDb make_db() {
  SignalDb db;
  db.add("core.a", 64, SignalClass::kMicroarchitectural, true);
  db.add("core.b", 8, SignalClass::kArchitectural, true);
  db.add("core.c", 1, SignalClass::kWire, false);
  return db;
}

Snapshot snap(std::uint64_t cycle, std::vector<std::uint64_t> vals) {
  Snapshot s;
  s.cycle = cycle;
  s.values = std::move(vals);
  return s;
}

TEST(SignalDb, AddAndLookup) {
  const SignalDb db = make_db();
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.id_of("core.b"), 1u);
  EXPECT_EQ(db.find("missing"), kInvalidSignal);
  EXPECT_THROW(db.id_of("missing"), std::runtime_error);
  EXPECT_TRUE(db.has("core.c"));
  EXPECT_EQ(db.info(0).width, 64u);
}

TEST(SignalDb, DuplicateThrows) {
  SignalDb db = make_db();
  EXPECT_THROW(db.add("core.a", 1), std::runtime_error);
}

TEST(SignalDb, ClassFilter) {
  const SignalDb db = make_db();
  EXPECT_EQ(db.with_class(SignalClass::kArchitectural).size(), 1u);
  EXPECT_EQ(db.with_class(SignalClass::kMicroarchitectural).size(), 1u);
  EXPECT_EQ(db.with_class(SignalClass::kWire).size(), 1u);
}

TEST(Snapshot, DiffFindsChanges) {
  const auto a = snap(10, {1, 2, 3});
  const auto b = snap(20, {1, 5, 3});
  const auto deltas = diff(a, b);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].id, 1u);
  EXPECT_EQ(deltas[0].before, 2u);
  EXPECT_EQ(deltas[0].after, 5u);
}

TEST(Snapshot, DiffIdenticalIsEmpty) {
  const auto a = snap(1, {7, 7, 7});
  EXPECT_TRUE(diff(a, a).empty());
}

TEST(Snapshot, DiffMismatchedSchemaThrows) {
  EXPECT_THROW(diff(snap(1, {1}), snap(2, {1, 2})), std::runtime_error);
}

TEST(Snapshot, ToggleCount) {
  const auto a = snap(1, {0b0000, 0xff});
  const auto b = snap(2, {0b1010, 0xff});
  EXPECT_EQ(toggle_count(a, b), 2u);
}

TEST(Trace, AtCycleContiguousLookup) {
  const SignalDb db = make_db();
  Trace t(&db);
  for (std::uint64_t c = 1; c <= 50; ++c) t.push(snap(c, {c, c, c}));
  EXPECT_EQ(t.at_cycle(1).values[0], 1u);
  EXPECT_EQ(t.at_cycle(37).values[0], 37u);
  EXPECT_EQ(t.at_cycle(50).values[0], 50u);
  EXPECT_THROW(t.at_cycle(51), std::runtime_error);
  EXPECT_THROW(t.at_cycle(0), std::runtime_error);
}

TEST(Trace, AtCycleErrorNamesCoveredRange) {
  const SignalDb db = make_db();
  Trace t(&db);
  for (std::uint64_t c = 5; c <= 9; ++c) t.push(snap(c, {c, 0, 0}));
  try {
    t.at_cycle(12);
    FAIL() << "expected out-of-range throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle 12"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("5..9"), std::string::npos);
  }
  EXPECT_THROW(Trace(&db).at_cycle(1), std::runtime_error);
}

TEST(Trace, NonContiguousCyclesFallBackToSearch) {
  const SignalDb db = make_db();
  Trace t(&db);
  for (const std::uint64_t c : {2u, 3u, 10u, 11u, 40u}) {
    t.push(snap(c, {c, c, c}));
  }
  EXPECT_EQ(t.at_cycle(10).values[1], 10u);
  EXPECT_EQ(t.at_cycle(40).values[2], 40u);
  EXPECT_THROW(t.at_cycle(12), std::runtime_error);
}

TEST(Trace, LongTraceMaterializesFromEitherEnd) {
  const SignalDb db = make_db();
  Trace t(&db);
  // Random access replays from reset before the midpoint and undoes from
  // the live array after it; signal 1 changes rarely, so its value must
  // carry across long runs of ticks on both sides.
  const std::uint64_t n = 327;
  for (std::uint64_t c = 1; c <= n; ++c) {
    t.push(snap(c, {c, c / 100, c % 2}));
  }
  const std::uint64_t probes[] = {1, 63, 64, 65, 128, 200, 300, n - 1, n};
  for (const std::uint64_t c : probes) {
    const Snapshot s = t.at_cycle(c);
    EXPECT_EQ(s.values[0], c) << "cycle " << c;
    EXPECT_EQ(s.values[1], c / 100) << "cycle " << c;
    EXPECT_EQ(s.values[2], c % 2) << "cycle " << c;
    EXPECT_EQ(t.value_at(c, 1), c / 100) << "cycle " << c;
  }
}

TEST(Trace, RecordDetectsChangesAndCountsToggles) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.begin_cycle(1);
  EXPECT_EQ(t.record(0, 0), 0u);   // initial zero: no event, no toggles
  EXPECT_EQ(t.record(1, 3), 2u);   // 0 -> 0b11
  EXPECT_EQ(t.record(2, 1), 1u);
  t.begin_cycle(2);
  EXPECT_EQ(t.record(0, 0), 0u);
  EXPECT_EQ(t.record(1, 3), 0u);   // unchanged: no event
  EXPECT_EQ(t.record(2, 0), 1u);
  EXPECT_EQ(t.event_count(), 3u);
  EXPECT_EQ(t.at_cycle(2).values[1], 3u);
}

TEST(Trace, RecordEnforcesOrdering) {
  const SignalDb db = make_db();
  Trace t(&db);
  EXPECT_THROW(t.record(0, 1), std::runtime_error);  // before begin_cycle
  t.begin_cycle(5);
  t.record(1, 7);
  EXPECT_THROW(t.record(1, 8), std::runtime_error);  // not ascending
  EXPECT_THROW(t.record(0, 8), std::runtime_error);
  EXPECT_THROW(t.begin_cycle(5), std::runtime_error);  // not increasing
  EXPECT_THROW(t.record(99, 1), std::runtime_error);   // outside schema
}

TEST(Trace, WindowDiffMatchesSnapshotDiff) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(1, {1, 0, 0}));
  t.push(snap(2, {2, 5, 0}));
  t.push(snap(3, {1, 5, 1}));  // signal 0 changed and changed back
  const auto deltas = t.diff(1, 3);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].id, 1u);
  EXPECT_EQ(deltas[0].before, 0u);
  EXPECT_EQ(deltas[0].after, 5u);
  EXPECT_EQ(deltas[1].id, 2u);
  EXPECT_TRUE(t.diff(2, 2).empty());
  EXPECT_THROW(t.diff(1, 9), std::runtime_error);
}

TEST(Trace, DiffDropsSignalsThatChangeBack) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(1, {4, 0, 0}));
  t.push(snap(2, {5, 1, 0}));
  t.push(snap(3, {6, 1, 1}));
  t.push(snap(4, {4, 2, 1}));  // signal 0 back to its window-start value
  t.push(snap(5, {4, 2, 0}));  // signal 2 back too
  const auto deltas = t.diff(1, 5);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].id, 1u);
  EXPECT_EQ(deltas[0].before, 0u);
  EXPECT_EQ(deltas[0].after, 2u);
  // Inside the window signal 0 did differ: a narrower window reports it.
  const auto inner = t.diff(1, 3);
  ASSERT_EQ(inner.size(), 3u);
  EXPECT_EQ(inner[0].id, 0u);
  EXPECT_EQ(inner[0].before, 4u);
  EXPECT_EQ(inner[0].after, 6u);
}

TEST(Trace, DiffOnNonContiguousCycles) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(2, {1, 0, 0}));
  t.push(snap(3, {2, 0, 0}));
  t.push(snap(10, {2, 7, 0}));
  t.push(snap(11, {3, 7, 1}));
  t.push(snap(40, {3, 8, 0}));
  const auto deltas = t.diff(3, 40);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].id, 0u);
  EXPECT_EQ(deltas[0].before, 2u);
  EXPECT_EQ(deltas[0].after, 3u);
  EXPECT_EQ(deltas[1].id, 1u);
  EXPECT_EQ(deltas[1].before, 0u);
  EXPECT_EQ(deltas[1].after, 8u);
  EXPECT_EQ(t.diff(10, 11).size(), 2u);
  EXPECT_TRUE(t.diff(40, 40).empty());
  EXPECT_THROW(t.diff(3, 12), std::runtime_error);  // 12 never recorded
  EXPECT_THROW(t.diff(11, 10), std::runtime_error);
}

/// The what() of the std::runtime_error `fn` throws ("" if none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Trace, RecordDirtyNamesEachMisuse) {
  const SignalDb db = make_db();
  const auto value = [](std::size_t id) { return id + 1; };
  const std::vector<std::uint64_t> ids_0_2 = {0b101};

  Trace t(&db);
  EXPECT_NE(error_of([&] { t.record_dirty(ids_0_2, value); })
                .find("before begin_cycle"),
            std::string::npos);

  t.begin_cycle(1);
  t.record(1, 9);
  EXPECT_NE(error_of([&] { t.record_dirty(ids_0_2, value); })
                .find("after record() in the same tick"),
            std::string::npos);

  t.begin_cycle(2);
  const std::vector<std::uint64_t> id_70 = {0, std::uint64_t{1} << 6};
  const std::string outside = error_of([&] { t.record_dirty(id_70, value); });
  EXPECT_NE(outside.find("signal id 70 outside the schema"),
            std::string::npos)
      << outside;

  // A well-formed call records ascending ids and counts toggles.
  t.begin_cycle(3);
  EXPECT_EQ(t.record_dirty(ids_0_2, value), 1u + 2u);  // 0->1, 0->3
  EXPECT_EQ(t.at_cycle(3).values, (std::vector<std::uint64_t>{1, 9, 3}));
}

TEST(Trace, AnyNonzeroPulseDetection) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(1, {0, 0, 0}));
  t.push(snap(2, {0, 0, 1}));  // pulse at cycle 2
  t.push(snap(3, {0, 0, 0}));
  t.push(snap(4, {0, 0, 0}));
  EXPECT_TRUE(t.any_nonzero(2, 1, 3));
  EXPECT_FALSE(t.any_nonzero(2, 2, 4));  // (2, 4]: pulse already over
  EXPECT_FALSE(t.any_nonzero(0, 1, 4));
}

TEST(Trace, DeltaMemoryBeatsDenseRecorder) {
  const SignalDb db = make_db();
  Trace t(&db);
  DenseTrace dense(&db);
  // 1000 ticks, a change only every 4th tick — sparse, like real signals.
  for (std::uint64_t c = 1; c <= 1000; ++c) {
    const Snapshot s = snap(c, {c / 4, 7, 0});
    t.push(s);
    dense.push(s);
  }
  EXPECT_LT(t.memory_bytes(), dense.memory_bytes());
  // Queries agree between the two recorders.
  EXPECT_EQ(t.change_counts(10, 50), dense.change_counts(10, 50));
  EXPECT_EQ(t.changed_mask(0, 1000), dense.changed_mask(0, 1000));
}

TEST(Trace, ChangeCountsWindow) {
  const SignalDb db = make_db();
  Trace t(&db);
  // Signal 0 changes at cycles 2,3,4,5; signal 1 changes at cycle 4 only.
  t.push(snap(1, {0, 0, 0}));
  t.push(snap(2, {1, 0, 0}));
  t.push(snap(3, {2, 0, 0}));
  t.push(snap(4, {3, 9, 0}));
  t.push(snap(5, {4, 9, 0}));
  const auto counts = t.change_counts(2, 4);  // transitions at cycles 3..4
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
}

TEST(Trace, ChangedMask) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(1, {0, 0, 0}));
  t.push(snap(2, {1, 0, 0}));
  t.push(snap(3, {1, 0, 1}));
  const auto mask = t.changed_mask(1, 3);
  EXPECT_TRUE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_TRUE(mask[2]);
  // The word form overwrites a reused buffer of any prior size.
  std::vector<std::uint64_t> words(4, ~std::uint64_t{0});
  t.changed_words(1, 3, words);
  EXPECT_EQ(words, std::vector<std::uint64_t>{0b101});
  t.changed_words(3, 9, words);
  EXPECT_EQ(words, std::vector<std::uint64_t>{0});
}

/// Record `ticks` pseudo-random cycles (1..ticks) into `t`.
void record_random(Trace& t, std::size_t ticks, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::uint64_t c = 1; c <= ticks; ++c) {
    t.begin_cycle(c);
    t.record(0, rng.below(4));
    t.record(1, rng.below(3));
    t.record(2, rng.below(2));
  }
}

TEST(TraceReset, KeepsSchemaDropsData) {
  const SignalDb db = make_db();
  Trace t(&db);
  record_random(t, 80, 3);
  EXPECT_GT(t.event_count(), 0u);
  t.reset();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.event_count(), 0u);
  // Recording after reset behaves like a fresh trace.
  record_random(t, 80, 3);
  Trace fresh(&db);
  record_random(fresh, 80, 3);
  ASSERT_EQ(t.size(), fresh.size());
  ASSERT_EQ(t.event_count(), fresh.event_count());
  for (std::size_t e = 0; e < t.event_count(); ++e) {
    EXPECT_EQ(t.event_id(e), fresh.event_id(e));
    EXPECT_EQ(t.event_value(e), fresh.event_value(e));
  }
  EXPECT_EQ(t.at_cycle(80).values, fresh.at_cycle(80).values);
  EXPECT_EQ(t.memory_bytes(), fresh.memory_bytes());
}

TEST(Trace, EmptyWindowNoChanges) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(1, {0, 0, 0}));
  t.push(snap(2, {5, 5, 5}));
  const auto counts = t.change_counts(5, 9);
  EXPECT_EQ(counts[0], 0u);
}

TEST(Vcd, ContainsHeaderAndChanges) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(1, {0xab, 1, 0}));
  t.push(snap(2, {0xab, 2, 1}));
  std::ostringstream os;
  write_vcd(os, t, "tb");
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("$scope module tb $end"), std::string::npos);
  EXPECT_NE(vcd.find("core_a"), std::string::npos);
  EXPECT_NE(vcd.find("#1"), std::string::npos);
  EXPECT_NE(vcd.find("#2"), std::string::npos);
  // Unchanged signal 0 must appear once (initial dump) only.
  const std::string code0 = "!";  // first signal gets code index 0 -> '!'
  std::size_t occurrences = 0;
  for (std::size_t pos = 0; (pos = vcd.find(" " + code0 + "\n", pos)) !=
                            std::string::npos;
       ++pos) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST(Vcd, SingleBitFormat) {
  SignalDb db;
  db.add("bit", 1);
  Trace t(&db);
  t.push(snap(1, {1}));
  std::ostringstream os;
  write_vcd(os, t);
  EXPECT_NE(os.str().find("1!"), std::string::npos);
}

}  // namespace
}  // namespace specure::snapshot
