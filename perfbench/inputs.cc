// Seeded input generation: every set, edit script and schedule of a run is
// a pure function of (workload, seed).
#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "nn/nn_circle_builder.h"
#include "perfbench.h"

namespace perfbench {

namespace {

// Distinct sub-streams of one seed.
enum Stream : uint64_t {
  kColdStream = 2,
  kHotStream = 3,
  kBaseStream = 4,
  kEditStream = 5,
  kHitPickStream = 6,
  kPhaseStream = 7,
};

// The data set every sample is drawn from is fixed, like a real city's
// points of interest; the seed picks the samples, hops and schedule.
constexpr size_t kPoolPoints = 16000;
constexpr uint64_t kDatasetSeed = 42;
constexpr int kRaster = 192;
constexpr size_t kHopsPerTick = 3;
// One hop moves a client by at most this share of the domain side (the
// taxi drift of bench_cache's replay_local: 0.02 on the unit square).
constexpr double kHopFraction = 0.02;

const Rect kUnitDomain{{0, 0}, {1, 1}};
// The LA data set's window (data/dataset.cc).
const Rect kLaDomain{{-118.47, 33.82}, {-118.12, 34.17}};

Shape ShapeOf(Workload w) {
  using rnnhm::DatasetKind;
  switch (w) {
    case Workload::kLinfCold:
      // bench_engine's L-inf shape: |O|/|F| = 100.
      return {DatasetKind::kUniform, 2000, 20, Metric::kLInf, kUnitDomain,
              kRaster};
    case Workload::kL2Cold:
      // |O|/|F| = 25 like bench_engine's L2 shape, at half its size so a
      // run holds a few dozen maps.
      return {DatasetKind::kUniform, 400, 16, Metric::kL2, kUnitDomain,
              kRaster};
    case Workload::kEditStream:
      // LA-shaped fleets at |O|/|F| = 20: with 200 facilities a
      // population's sweep cost stays near the typical one.
      return {DatasetKind::kLa, 4000, 200, Metric::kLInf, kLaDomain,
              kRaster};
    case Workload::kHitMix:
      break;
  }
  // hit_mix's hot sets: small L2 sets, cheap to warm. Hits cost the same
  // whatever the set (the cached grid has the raster's size).
  return {DatasetKind::kUniform, 300, 30, Metric::kL2, kUnitDomain, kRaster};
}

// hit_mix's interleaved cold requests: L2 at |O|/|F| = 4. With 125
// facilities the sweep cost varies far less from set to set than the
// few-facility shapes do, so the head-of-line stalls behind it (the hits'
// tail) do not hinge on one unlucky set.
Shape ColdShapeOf(Workload w) {
  if (w != Workload::kHitMix) return ShapeOf(w);
  return {rnnhm::DatasetKind::kUniform, 500, 125, Metric::kL2, kUnitDomain,
          kRaster};
}

// splitmix64 finalizer over the combined words.
uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLinfCold:
      return "linf_cold";
    case Workload::kL2Cold:
      return "l2_cold";
    case Workload::kEditStream:
      return "edit_stream";
    case Workload::kHitMix:
      return "hit_mix";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kLinfCold, Workload::kL2Cold,
                     Workload::kEditStream, Workload::kHitMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

uint64_t GridDigest(const rnnhm::HeatmapGrid& grid) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* bytes, size_t n) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  const int dims[2] = {grid.width(), grid.height()};
  mix(dims, sizeof(dims));
  mix(grid.data(), grid.values().size() * sizeof(double));
  return h;
}

InputGen::InputGen(Workload workload, uint64_t seed)
    : seed_(seed),
      shape_(ShapeOf(workload)),
      cold_shape_(ColdShapeOf(workload)),
      pool_(rnnhm::MakeDataset(shape_.dataset, kDatasetSeed, kPoolPoints)) {}

GeneratedSet InputGen::MakeSet(const Shape& shape, uint64_t stream,
                               uint64_t index) const {
  const rnnhm::Workload sample = rnnhm::SampleWorkload(
      pool_, shape.clients, shape.facilities,
      MixSeed(MixSeed(seed_, stream), index));
  const Clock::time_point t0 = Clock::now();
  std::vector<NnCircle> circles =
      rnnhm::BuildNnCircles(sample.clients, sample.facilities, shape.metric);
  GeneratedSet out;
  out.nn_build_ms = MsBetween(t0, Clock::now());
  out.set = CircleSetSnapshot::Make(std::move(circles), shape.metric);
  return out;
}

GeneratedSet InputGen::ColdSet(uint64_t i) const {
  return MakeSet(cold_shape_, kColdStream, i);
}

GeneratedSet InputGen::HotSet(uint64_t i) const {
  return MakeSet(shape_, kHotStream, i);
}

EditPopulation InputGen::BasePopulation(int fleet,
                                        double* nn_build_ms) const {
  const rnnhm::Workload sample = rnnhm::SampleWorkload(
      pool_, shape_.clients, shape_.facilities,
      MixSeed(MixSeed(seed_, kBaseStream), static_cast<uint64_t>(fleet)));
  EditPopulation pop;
  pop.clients = sample.clients;
  pop.facilities = sample.facilities;
  const Clock::time_point t0 = Clock::now();
  pop.circles = rnnhm::BuildNnCircles(pop.clients, pop.facilities,
                                      shape_.metric);
  *nn_build_ms = MsBetween(t0, Clock::now());
  return pop;
}

std::vector<CircleSetEdit> InputGen::NextTick(uint64_t t,
                                              EditPopulation* pop) const {
  rnnhm::Rng rng(MixSeed(MixSeed(seed_, kEditStream), t));
  const double hop = kHopFraction * (shape_.domain.hi.x - shape_.domain.lo.x);
  std::vector<uint32_t> ids;
  while (ids.size() < kHopsPerTick) {
    const auto id = static_cast<uint32_t>(rng.NextBounded(pop->clients.size()));
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  std::vector<CircleSetEdit> edits;
  for (const uint32_t id : ids) {
    Point& at = pop->clients[id];
    at = Point{at.x + rng.Uniform(-hop, hop), at.y + rng.Uniform(-hop, hop)};
    NnCircle moved =
        rnnhm::BuildNnCircles({at}, pop->facilities, shape_.metric).front();
    moved.client = pop->circles[id].client;
    pop->circles[id] = moved;
    edits.push_back(CircleSetEdit{CircleSetEdit::Kind::kReplace, id, moved});
  }
  return edits;
}

int InputGen::HotIndexForHit(uint64_t i) const {
  return static_cast<int>(MixSeed(MixSeed(seed_, kHitPickStream), i) %
                          static_cast<uint64_t>(kHotSets));
}

double InputGen::StreamPhase(int stream) const {
  return static_cast<double>(MixSeed(seed_, kPhaseStream + stream) >> 11) *
         0x1.0p-53;
}

}  // namespace perfbench
