#include "probes.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "net/network.h"
#include "os/file_system.h"
#include "os/page_cache.h"
#include "sim/simulator.h"
#include "spans.h"
#include "storage/block_device.h"

namespace bdio_bench {
namespace {

using namespace bdio;

// --- sim: event scheduling and dispatch ----------------------------------

constexpr uint64_t kSimEvents = 2'000'000;
constexpr int kSimChains = 1024;

/// One self-rescheduling event chain: every firing schedules the next one
/// a random delay later until the shared budget is spent.
struct Tick {
  sim::Simulator* sim;
  Rng* rng;
  uint64_t* fired;
  void operator()() const {
    if (++*fired >= kSimEvents) return;
    sim->ScheduleAfter(Nanos(1 + rng->Uniform(1'000'000)), *this);
  }
};

double ProbeSimNsPerEvent(Rng* rng) {
  sim::Simulator sim;
  uint64_t fired = 0;
  const double t0 = WallNow();
  for (int i = 0; i < kSimChains; ++i) {
    sim.ScheduleAfter(Nanos(1 + rng->Uniform(1'000'000)),
                      Tick{&sim, rng, &fired});
  }
  sim.Run();
  const double elapsed = WallNow() - t0;
  return elapsed * 1e9 / static_cast<double>(sim.events_processed());
}

// --- net: max-min fair flow sets -----------------------------------------

/// All-to-all flow set on `nodes` hosts, `rounds` times over: every flow
/// starts at once, so each arrival and departure re-solves the rates.
/// Returns host microseconds per flow.
double ProbeNetFlowUs(Rng* rng, uint32_t nodes, int rounds) {
  double elapsed = 0;
  uint64_t flows = 0;
  for (int r = 0; r < rounds; ++r) {
    sim::Simulator sim;
    net::Network net(&sim, nodes);
    uint64_t done = 0;
    const double t0 = WallNow();
    for (uint32_t src = 0; src < nodes; ++src) {
      for (uint32_t dst = 0; dst < nodes; ++dst) {
        if (src == dst) continue;
        net.Transfer(src, dst, MiB(1) + rng->Uniform(MiB(1)),
                     [&done] { ++done; });
        ++flows;
      }
    }
    sim.Run();
    elapsed += WallNow() - t0;
    if (done != static_cast<uint64_t>(nodes) * (nodes - 1)) {
      std::fprintf(stderr, "net probe: %llu of %u flows finished\n",
                   static_cast<unsigned long long>(done), nodes * (nodes - 1));
      std::exit(1);
    }
  }
  return elapsed * 1e6 / static_cast<double>(flows);
}

// --- os: page cache through the file system ------------------------------

constexpr uint64_t kCacheBytes = MiB(512);
constexpr uint64_t kFileBytes = MiB(8);
constexpr uint64_t kChunkBytes = MiB(1);
constexpr int kFiles = static_cast<int>(2 * kCacheBytes / kFileBytes);

struct OsTimes {
  double write_ns_per_unit = 0;
  double read_ns_per_unit = 0;
  double drop_ns_per_unit = 0;
};

/// Appends a working set twice the cache capacity, reads it back in a
/// seeded random chunk order (about half hits, half misses), then deletes
/// every file, which drops its units. Each phase runs the simulator dry.
OsTimes ProbeOs(Rng* rng) {
  sim::Simulator sim;
  storage::BlockDevice dev(&sim, "sda", storage::DiskParameters{},
                           Rng(rng->Next()));
  os::PageCacheParams params;
  params.capacity_bytes = kCacheBytes;
  os::PageCache cache(&sim, params);
  os::FileSystem fs(&sim, &dev, &cache);
  const double units =
      static_cast<double>(kFiles * kFileBytes / params.unit_bytes);

  OsTimes times;
  std::vector<os::File*> files;
  double t0 = WallNow();
  for (int i = 0; i < kFiles; ++i) {
    os::File* file = fs.Create("f" + std::to_string(i)).value();
    for (uint64_t off = 0; off < kFileBytes; off += kChunkBytes) {
      fs.Append(file, kChunkBytes, nullptr);
    }
    files.push_back(file);
  }
  sim.Run();
  times.write_ns_per_unit = (WallNow() - t0) * 1e9 / units;

  std::vector<std::pair<int, uint64_t>> chunks;
  for (int i = 0; i < kFiles; ++i) {
    for (uint64_t off = 0; off < kFileBytes; off += kChunkBytes) {
      chunks.emplace_back(i, off);
    }
  }
  for (size_t i = chunks.size(); i > 1; --i) {
    std::swap(chunks[i - 1], chunks[rng->Uniform(i)]);
  }
  t0 = WallNow();
  for (const auto& [i, off] : chunks) {
    fs.Read(files[static_cast<size_t>(i)], off, kChunkBytes, nullptr);
  }
  sim.Run();
  times.read_ns_per_unit = (WallNow() - t0) * 1e9 / units;

  t0 = WallNow();
  for (int i = 0; i < kFiles; ++i) {
    if (!fs.Delete("f" + std::to_string(i)).ok()) {
      std::fprintf(stderr, "os probe: delete f%d failed\n", i);
      std::exit(1);
    }
  }
  sim.Run();
  times.drop_ns_per_unit = (WallNow() - t0) * 1e9 / units;
  return times;
}

// --- storage: block device behind the deadline elevator ------------------

constexpr uint64_t kStorageRequests = 200'000;
constexpr int kStorageDepth = 8;
constexpr uint64_t kRequestSectors = 256;  // 128 KiB

/// Closed-loop issuer: each completion submits the next request, half of
/// them sequential, half at a random offset, one in four a write.
struct Issuer {
  storage::BlockDevice* dev;
  Rng* rng;
  uint64_t* remaining;
  uint64_t* next_sequential;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    uint64_t sector = 0;
    if (rng->Bernoulli(0.5)) {
      sector = *next_sequential;
      *next_sequential += kRequestSectors;
    } else {
      sector = rng->Uniform(1'000'000'000ULL) & ~uint64_t{7};
    }
    const storage::IoType type = rng->Bernoulli(0.25)
                                     ? storage::IoType::kWrite
                                     : storage::IoType::kRead;
    dev->Submit(type, Sectors(sector), Sectors(kRequestSectors), *this);
  }
};

double ProbeStorageSubmitNs(Rng* rng) {
  sim::Simulator sim;
  storage::BlockDevice dev(&sim, "sdb", storage::DiskParameters{},
                           Rng(rng->Next()), "deadline");
  uint64_t remaining = kStorageRequests;
  uint64_t next_sequential = 0;
  const double t0 = WallNow();
  for (int i = 0; i < kStorageDepth; ++i) {
    Issuer{&dev, rng, &remaining, &next_sequential}();
  }
  sim.Run();
  return (WallNow() - t0) * 1e9 / static_cast<double>(kStorageRequests);
}

}  // namespace

std::map<std::string, double> RunProbes(uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, double> out;
  out["sim.ns_per_event"] = ProbeSimNsPerEvent(&rng);
  out["net.flow_us_n11"] = ProbeNetFlowUs(&rng, 11, 40);
  out["net.flow_us_n41"] = ProbeNetFlowUs(&rng, 41, 1);
  const OsTimes os = ProbeOs(&rng);
  out["os.write_ns_per_unit"] = os.write_ns_per_unit;
  out["os.read_ns_per_unit"] = os.read_ns_per_unit;
  out["os.drop_ns_per_unit"] = os.drop_ns_per_unit;
  out["storage.submit_ns"] = ProbeStorageSubmitNs(&rng);
  return out;
}

}  // namespace bdio_bench
