// E13 / Fig. 12 caption — communicated data per node, measured exactly by
// running every distributed optimizer through SimMPI and counting bytes.
//
// Two accounting levels are reported (see dist_optimizer.hpp):
//  * app-level — MPI-call buffer bytes, what mpiP reports and what the
//    paper's caption lists (DSGD 0.952 GB, SparCML 0.951 GB, ASGD
//    28.573 GB, DPSGD 1.904 GB, PSSGD 1.903 GB per node);
//  * wire-level — bytes actually moved by the collective algorithms.
// The model here is parameter-scaled (the 25.5M-parameter ResNet-50 does
// not fit 8 replicas in this container); volumes are linear in parameter
// count, so results are also shown extrapolated to ResNet-50 scale.
#include <iostream>

#include "common.hpp"
#include "core/rng.hpp"
#include "dist/dist_optimizer.hpp"
#include "dist/sparcml.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "train/optimizers.hpp"

namespace d500::bench {
namespace {

constexpr int kWorld = 4;
constexpr std::int64_t kBatch = 8;
constexpr std::int64_t kInDim = 1200;

Model big_mlp() {
  // ~1.6M parameters over 6 tensors: large enough for meaningful byte
  // counts (~16x smaller than ResNet-50), with several tensors so the
  // per-tensor vs fused-buffer communication difference is visible.
  return models::mlp(kBatch / kWorld, kInDim, {800, 800}, 10, bench_seed());
}

TensorMap feeds_for(int rank, int step) {
  Rng rng(bench_seed() + static_cast<std::uint64_t>(step * 131 + rank));
  TensorMap f;
  const std::int64_t per = kBatch / kWorld;
  Tensor d({per, kInDim});
  d.fill_uniform(rng, -1, 1);
  f["data"] = std::move(d);
  Tensor l({per});
  for (std::int64_t i = 0; i < per; ++i)
    l.at(i) = static_cast<float>(rng.below(10));
  f["labels"] = std::move(l);
  return f;
}

struct VolumeRow {
  std::string name;
  double app_bytes = 0;   // per node per iteration
  double wire_bytes = 0;  // per node per iteration
  double calls = 0;
};

using MakeFn = std::function<std::unique_ptr<DistributedOptimizer>(
    std::unique_ptr<ThreeStepOptimizer>, Communicator&)>;

VolumeRow measure(const std::string& name, const MakeFn& make, int steps) {
  SimMpi mpi(kWorld);
  std::atomic<std::uint64_t> app{0}, calls{0};
  const Model model = big_mlp();
  mpi.run([&](Communicator& comm) {
    ReferenceExecutor exec(build_network(model));
    auto base = std::make_unique<GradientDescentOptimizer>(exec, 0.1);
    auto dist = make(std::move(base), comm);
    dist->set_loss_value("loss");
    for (int s = 0; s < steps; ++s) dist->train(feeds_for(comm.rank(), s));
    app += dist->app_bytes();
    calls += dist->comm_calls();
  });
  VolumeRow row;
  row.name = name;
  row.app_bytes = static_cast<double>(app.load()) / kWorld / steps;
  row.wire_bytes =
      static_cast<double>(mpi.total_bytes_sent()) / kWorld / steps;
  row.calls = static_cast<double>(calls.load()) / kWorld / steps;
  return row;
}

}  // namespace

int run() {
  print_bench_header("L3 communication volume (Fig. 12 caption)",
                     bench_seed(),
                     "world=4, ~1.46M params (x17.5 to ResNet-50 scale)");
  const int steps = scale_pick(1, 2, 4);

  std::vector<VolumeRow> rows;
  rows.push_back(measure("CDSGD (ring, direct ptrs)",
                         [](auto base, Communicator& c) {
                           return std::make_unique<ConsistentDecentralized>(
                               std::move(base), c);
                         },
                         steps));
  {
    DsgdOptions opt;
    opt.staging_copies = true;
    rows.push_back(measure("REF-dsgd (staging copies)",
                           [opt](auto base, Communicator& c) {
                             return std::make_unique<ConsistentDecentralized>(
                                 std::move(base), c, opt);
                           },
                           steps));
  }
  rows.push_back(measure("Horovod-like (fused buffer)",
                         [](auto base, Communicator& c) {
                           return make_horovod_like(std::move(base), c);
                         },
                         steps));
  rows.push_back(measure("REF-pssgd",
                         [](auto base, Communicator& c) {
                           return std::make_unique<ConsistentCentralized>(
                               std::move(base), c);
                         },
                         steps));
  rows.push_back(measure("TF-PS (sharded)",
                         [](auto base, Communicator& c) {
                           return std::make_unique<ShardedParameterServer>(
                               std::move(base), c);
                         },
                         steps));
  rows.push_back(measure("REF-dpsgd (neighbors)",
                         [](auto base, Communicator& c) {
                           return std::make_unique<NeighborDecentralized>(
                               std::move(base), c);
                         },
                         steps));
  rows.push_back(measure("REF-mavg",
                         [](auto base, Communicator& c) {
                           return std::make_unique<ModelAveraging>(
                               std::move(base), c);
                         },
                         steps));
  rows.push_back(measure("SparCML (density 0.05)",
                         [](auto base, Communicator& c) {
                           return std::make_unique<SparCMLOptimizer>(
                               std::move(base), c, 0.05);
                         },
                         steps));

  // ASGD: the parameter server with no staleness bound on rank 0, workers
  // on ranks 1..3. The server is not a training node, so app and wire
  // bytes are per worker (the wire total covers the server's replies too).
  {
    SimMpi mpi(kWorld);
    const Model model = big_mlp();
    const int workers = kWorld - 1;
    std::atomic<std::uint64_t> app{0}, calls{0};
    mpi.run([&](Communicator& comm) {
      ReferenceExecutor exec(build_network(model));
      if (comm.rank() == 0) {
        GradientDescentOptimizer update(exec, 0.1);
        run_parameter_server(comm, update, kUnboundedStaleness);
        return;
      }
      auto base = std::make_unique<GradientDescentOptimizer>(exec, 0.1);
      BoundedStalenessWorker dist(std::move(base), comm);
      dist.set_loss_value("loss");
      for (int s = 0; s < steps; ++s) dist.train(feeds_for(comm.rank(), s));
      dist.finish();
      app += dist.app_bytes();
      calls += dist.comm_calls();
    });
    VolumeRow row;
    row.name = "REF-asgd (PS, unbounded)";
    row.app_bytes = static_cast<double>(app.load()) / workers / steps;
    row.wire_bytes =
        static_cast<double>(mpi.total_bytes_sent()) / workers / steps;
    row.calls = static_cast<double>(calls.load()) / workers / steps;
    rows.push_back(row);
  }

  const double param_bytes = 25.5e6 * 4;
  const Model probe = big_mlp();
  const double model_bytes =
      static_cast<double>(probe.parameter_count()) * 4;
  const double scale_factor = param_bytes / model_bytes;

  Table t({"optimizer", "app GB/node/iter (ResNet-50 scale)",
           "wire GB/node/iter", "comm calls/iter", "vs DSGD"});
  const double dsgd_app = rows[0].app_bytes;
  for (const auto& r : rows) {
    t.add_row({r.name, Table::num(r.app_bytes * scale_factor / 1e9, 3),
               Table::num(r.wire_bytes * scale_factor / 1e9, 3),
               Table::num(r.calls, 1),
               Table::num(r.app_bytes / dsgd_app, 2) + "x"});
  }
  std::cout << "\n" << t.to_text();

  std::cout << "\npaper caption (per node, whole run): CDSGD 0.952, SparCML "
               "0.951, REF-dsgd 0.952, REF-asgd 28.573, REF-dpsgd 1.904, "
               "REF-pssgd 1.903 GB\n"
               "note: the ASGD row is run_parameter_server at "
               "kUnboundedStaleness with 3 workers; its bytes are per "
               "worker, since the server is not a training node. Each "
               "worker pulls parameters and pushes gradients once per step, "
               "so it stays ~2x DSGD; the paper's 30x ASGD figure reflects "
               "the server unicasting parameters per update — that "
               "accounting is in the scaling model "
               "(bench_l3_strong_scaling), where ASGD volume grows linearly "
               "with node count.\n";
  auto find = [&](const std::string& prefix) -> const VolumeRow& {
    for (const auto& r : rows)
      if (r.name.rfind(prefix, 0) == 0) return r;
    throw Error("row not found: " + prefix);
  };
  const bool pssgd_2x =
      std::abs(find("REF-pssgd").app_bytes / dsgd_app - 2.0) < 0.01;
  const bool dpsgd_2x =
      std::abs(find("REF-dpsgd").app_bytes / dsgd_app - 2.0) < 0.01;
  const bool sparse_leq =
      find("SparCML").app_bytes <= dsgd_app * 1.05;
  const bool horovod_fewer_calls =
      find("Horovod-like").calls < find("CDSGD").calls;
  std::cout << "\nshape checks:\n"
            << "  PSSGD = 2x DSGD (caption 1.903/0.952): "
            << (pssgd_2x ? "yes" : "NO") << "\n"
            << "  DPSGD = 2x DSGD (caption 1.904/0.952): "
            << (dpsgd_2x ? "yes" : "NO") << "\n"
            << "  SparCML <= DSGD (caption 0.951/0.952): "
            << (sparse_leq ? "yes" : "NO") << "\n"
            << "  Horovod fusion slashes message count: "
            << (horovod_fewer_calls ? "yes" : "NO") << "\n";
  return 0;
}

}  // namespace d500::bench

int main() { return d500::bench::run(); }
