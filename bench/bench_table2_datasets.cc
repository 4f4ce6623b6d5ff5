// Table II: datasets and models. Prints the paper's inventory next to the
// scaled-down synthetic instantiations this repository trains on (README,
// "Substitutions and deviations"), and verifies each generator produces
// well-formed samples at its configured scale.
#include <cstdio>

#include "bench_util.h"
#include "workloads/ctr_gen.h"
#include "workloads/ebay_gen.h"
#include "workloads/graph_gen.h"
#include "workloads/kg_gen.h"

using namespace mlkv;
using namespace mlkv::bench;

int main(int argc, char** argv) {
  // No tunables: parsing only rejects unknown flags.
  const Flags flags(argc, argv, {});
  Banner("Table II: datasets and models (paper scale -> repo scale)");
  Table t({"dataset", "paper #emb", "repo #emb", "dim", "type", "models"});
  t.PrintHeader();

  {
    KgConfig kg;
    kg.num_entities = 500000;
    KgGenerator gen(kg);
    (void)gen.Next();
    t.Cell(std::string("Freebase86M"));
    t.Cell(std::string("86M"));
    t.Cell(Human(static_cast<double>(kg.num_entities)));
    t.Cell(std::string("100"));
    t.Cell(std::string("KGE"));
    t.Cell(std::string("DistMult&ComplEx"));
    t.EndRow();
  }
  {
    KgConfig kg;
    kg.num_entities = 100000;
    KgGenerator gen(kg);
    (void)gen.Next();
    t.Cell(std::string("WikiKG2"));
    t.Cell(std::string("2.5M"));
    t.Cell(Human(static_cast<double>(kg.num_entities)));
    t.Cell(std::string("400"));
    t.Cell(std::string("KGE"));
    t.Cell(std::string("DistMult&ComplEx"));
    t.EndRow();
  }
  {
    GraphConfig g;
    g.num_nodes = 400000;
    GraphGenerator gen(g);
    std::vector<Key> nbrs;
    gen.SampleNeighbors(gen.SampleTrainNode(), &nbrs);
    t.Cell(std::string("Papers100M"));
    t.Cell(std::string("111M"));
    t.Cell(Human(static_cast<double>(g.num_nodes)));
    t.Cell(std::string("128"));
    t.Cell(std::string("GNN"));
    t.Cell(std::string("GraphSage&GAT"));
    t.EndRow();
  }
  {
    EbayConfig e;
    e.num_transactions = 800000;
    e.num_entities = 400000;
    e.tripartite = true;
    EbayGenerator gen(e);
    (void)gen.Next();
    t.Cell(std::string("eBay-Payout"));
    t.Cell(std::string("1.7B"));
    t.Cell(Human(static_cast<double>(gen.total_keys())));
    t.Cell(std::string("768"));
    t.Cell(std::string("GNN"));
    t.Cell(std::string("GraphSage"));
    t.EndRow();
  }
  {
    EbayConfig e;
    e.num_transactions = 500000;
    e.num_entities = 200000;
    EbayGenerator gen(e);
    (void)gen.Next();
    t.Cell(std::string("eBay-Trisk"));
    t.Cell(std::string("185M"));
    t.Cell(Human(static_cast<double>(gen.total_keys())));
    t.Cell(std::string("256"));
    t.Cell(std::string("GNN"));
    t.Cell(std::string("GraphSage"));
    t.EndRow();
  }
  {
    CtrConfig c;
    c.num_fields = 8;
    c.field_cardinality = 2000000;
    CtrGenerator gen(c);
    (void)gen.Next();
    t.Cell(std::string("Criteo-Terabyte"));
    t.Cell(std::string("883M"));
    t.Cell(Human(static_cast<double>(gen.total_keys())));
    t.Cell(std::string("16"));
    t.Cell(std::string("DLRM"));
    t.Cell(std::string("FFNN&DCN"));
    t.EndRow();
  }
  {
    CtrConfig c;
    c.num_fields = 8;
    c.field_cardinality = 100000;
    CtrGenerator gen(c);
    (void)gen.Next();
    t.Cell(std::string("Criteo-Ad"));
    t.Cell(std::string("34M"));
    t.Cell(Human(static_cast<double>(gen.total_keys())));
    t.Cell(std::string("16"));
    t.Cell(std::string("DLRM"));
    t.Cell(std::string("FFNN&DCN"));
    t.EndRow();
  }

  std::printf("\nAll generators synthesize skew + planted learnable signal; "
              "see README, \"Substitutions and deviations\".\n");
  return 0;
}
