// Table 1 of the paper: inspector time (total) and executor time (per
// iteration) for the regular and irregular mesh sweeps of the Figure-1 code
// in one program, on 2/4/8/16 processors.
//
// Workload (paper Section 5.1): 256x256 regular mesh, block-distributed by
// Multiblock Parti; 65536-point irregular mesh distributed by Chaos.  The
// inspector comprises the Parti ghost-schedule build and the Chaos localize
// of the edge endpoint arrays; the executor is one stencil sweep plus one
// edge sweep (intra-mesh communication included).
//
// Expected shape: inspector cost drops with more processors (the Chaos
// dereference work is spread); executor drops with more processors.
#include <cstdio>

#include "common/bench_util.h"
#include "workloads/coupled_mesh.h"

using namespace mc;

int main() {
  const std::vector<int> procs = {2, 4, 8, 16};
  constexpr int kIters = 5;
  std::vector<double> inspector, executor;

  for (int np : procs) {
    double insp = 0, exec = 0;
    transport::World::runSPMD(np, [&](transport::Comm& c) {
      workloads::CoupledMesh mesh(c, workloads::CoupledMeshConfig{});
      bench::PhaseTimer timer(c);
      mesh.buildRegularInspector();
      mesh.buildIrregularInspector();
      const double ti = timer.lap();
      // The copy schedules are built after the inspector lap: built first,
      // they would fill each rank's dereference cache, and the timed
      // localize would resolve every edge endpoint without a lookup.
      mesh.buildMetaChaosCopySchedules(core::Method::kCooperation);
      timer.lap();
      for (int it = 0; it < kIters; ++it) {
        mesh.regularSweep();
        mesh.copyRegToIrregMC();  // keep x fresh between sweeps
        mesh.irregularSweep();
      }
      const double te = timer.lap() / kIters;
      if (c.rank() == 0) {
        insp = ti;
        exec = te;
      }
    });
    inspector.push_back(insp);
    executor.push_back(exec);
  }

  std::vector<std::string> cols;
  for (int np : procs) cols.push_back("P=" + std::to_string(np));
  std::printf("%s\n",
              bench::renderTable(
                  "Table 1: inspector (total) / executor (per iter), one "
                  "program, regular+irregular meshes [ms]",
                  cols,
                  {
                      bench::Row{"inspector", inspector,
                                 {1533, 1340, 667, 684}},
                      bench::Row{"executor", executor, {91, 66, 65, 53}},
                  })
                  .c_str());
  std::printf("note: executor includes the Meta-Chaos remap to keep the\n"
              "unstructured sweep's input live, as in the Figure 1 code.\n");
  return 0;
}
