#include "workloads/pagerank.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace antimr {
namespace workloads {

namespace {

// Value formats:
//   map input / reduce output:  "<rank> <nbr1> <nbr2> ..."
//   map output:                 "A <nbr1> ..." (adjacency carrier)
//                               "R <contribution>" (rank mass along an edge)

struct ParsedNode {
  double rank = 0.0;
  Slice adjacency;  // the raw "<nbr1> <nbr2> ..." tail (may be empty)
};

bool ParseNodeValue(const Slice& value, ParsedNode* node) {
  // rank is the first space-separated token.
  size_t i = 0;
  while (i < value.size() && value[i] != ' ') ++i;
  const std::string rank_text(value.data(), i);
  char* end = nullptr;
  node->rank = std::strtod(rank_text.c_str(), &end);
  if (end == rank_text.c_str()) return false;
  node->adjacency = i < value.size()
                        ? Slice(value.data() + i + 1, value.size() - i - 1)
                        : Slice();
  return true;
}

size_t CountNeighbors(const Slice& adjacency) {
  if (adjacency.empty()) return 0;
  size_t n = 1;
  for (size_t i = 0; i < adjacency.size(); ++i) {
    if (adjacency[i] == ' ') ++n;
  }
  return n;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10e", v);
  return buf;
}

class PageRankMapper : public Mapper {
 public:
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ParsedNode node;
    if (!ParseNodeValue(value, &node)) return;
    // Keep the graph structure flowing to the next iteration.
    std::string carrier = "A";
    if (!node.adjacency.empty()) {
      carrier.push_back(' ');
      carrier.append(node.adjacency.data(), node.adjacency.size());
    }
    ctx->Emit(key, carrier);

    const size_t degree = CountNeighbors(node.adjacency);
    if (degree == 0) return;
    // Every out-edge carries the same contribution value: exactly the
    // duplication EagerSH collapses.
    const std::string contribution =
        "R " + FormatDouble(node.rank / static_cast<double>(degree));
    size_t start = 0;
    const Slice adj = node.adjacency;
    for (size_t i = 0; i <= adj.size(); ++i) {
      if (i == adj.size() || adj[i] == ' ') {
        if (i > start) {
          ctx->Emit(Slice(adj.data() + start, i - start), contribution);
        }
        start = i + 1;
      }
    }
  }
};

class PageRankReducer : public Reducer {
 public:
  PageRankReducer(uint64_t num_nodes, double damping)
      : num_nodes_(num_nodes), damping_(damping) {}

  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    double sum = 0.0;
    std::string adjacency;
    Slice value;
    while (values->Next(&value)) {
      if (value.empty()) continue;
      if (value[0] == 'A') {
        adjacency.assign(value.size() > 2 ? value.data() + 2 : "",
                         value.size() > 2 ? value.size() - 2 : 0);
      } else if (value[0] == 'R' && value.size() > 2) {
        const std::string text(value.data() + 2, value.size() - 2);
        sum += std::strtod(text.c_str(), nullptr);
      }
    }
    const double rank =
        (1.0 - damping_) / static_cast<double>(num_nodes_) + damping_ * sum;
    std::string out = FormatDouble(rank);
    if (!adjacency.empty()) {
      out.push_back(' ');
      out += adjacency;
    }
    ctx->Emit(key, out);
  }

 private:
  uint64_t num_nodes_;
  double damping_;
};

}  // namespace

JobSpec MakePageRankJob(const PageRankConfig& config) {
  JobSpec spec;
  spec.name = "pagerank";
  spec.mapper_factory = []() { return std::make_unique<PageRankMapper>(); };
  const uint64_t n = config.num_nodes;
  const double d = config.damping;
  spec.reducer_factory = [n, d]() {
    return std::make_unique<PageRankReducer>(n, d);
  };
  spec.num_reduce_tasks = config.num_reduce_tasks;
  spec.map_output_codec = config.codec;
  spec.map_buffer_bytes = config.map_buffer_bytes;
  return spec;
}

engine::JobPlan MakePageRankPlan(
    const PageRankConfig& config, std::vector<InputSplit> initial_splits,
    int iterations, const anticombine::AntiCombineOptions* anti_combine) {
  engine::JobPlan plan;
  plan.name = "pagerank";
  // Cannot fail: the dataset name is non-empty and added exactly once.
  const Status added = plan.AddInput("ranks_0", std::move(initial_splits));
  (void)added;
  const JobSpec spec = MakePageRankJob(config);
  for (int it = 0; it < iterations; ++it) {
    engine::Stage stage;
    stage.name = "iter_" + std::to_string(it);
    stage.spec = spec;
    stage.inputs = {"ranks_" + std::to_string(it)};
    stage.output = "ranks_" + std::to_string(it + 1);
    if (anti_combine != nullptr) {
      stage.options.anti_combine = true;
      stage.options.anti_combine_options = *anti_combine;
    }
    plan.AddStage(std::move(stage));
  }
  return plan;
}

Status RunPageRank(const PageRankConfig& config,
                   const std::vector<KV>& graph, int iterations,
                   const anticombine::AntiCombineOptions* anti_combine,
                   int num_map_tasks, PageRankRunResult* result,
                   engine::Executor* executor,
                   engine::PlanResult* plan_result) {
  engine::JobPlan plan = MakePageRankPlan(
      config, MakeSplits(graph, num_map_tasks), iterations, anti_combine);
  std::unique_ptr<engine::Executor> owned;
  if (executor == nullptr) {
    owned = std::make_unique<engine::Executor>();
    executor = owned.get();
  }
  engine::PlanResult local_result;
  engine::PlanResult* pr = plan_result != nullptr ? plan_result : &local_result;
  ANTIMR_RETURN_NOT_OK(executor->Run(plan, pr));
  result->total = pr->metrics;
  result->final_ranks =
      pr->FlatOutput("ranks_" + std::to_string(iterations));
  return Status::OK();
}

}  // namespace workloads
}  // namespace antimr
