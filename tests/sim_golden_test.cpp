// Golden simulation vectors: pins the simulator's output bit for bit.
//
// Each record is {config, direction, task count, makespan, result64,
// label64}, in the style of a {n, res64, cert64} test table:
//   - result64 is FNV-1a over the bits of every task's start and finish
//     time and of every resource's busy time and per-category busy time;
//   - label64 is FNV-1a over every task's label, in task-id order.
// The table covers Zeppelin and the five baselines on clusters A and B at 16
// and 64 GPUs over the github and arxiv datasets, plus the first four batches
// of the layered benchmark's training-iteration shape (7B, 64 GPUs on
// cluster A, github, 256k tokens, seed 1).
//
// The records were generated by the simulator before its data layout was
// rewritten; no later change may alter one. To print the current values in
// table syntax (for a deliberate model change, reviewed record by record):
//   ZEPPELIN_GOLDEN_PRINT=1 ./sim_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/double_ring.h"
#include "src/baselines/hybrid_dp.h"
#include "src/baselines/llama_cp.h"
#include "src/baselines/packing.h"
#include "src/baselines/te_cp.h"
#include "src/common/trace_json.h"
#include "src/core/trainer.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/sim/engine.h"
#include "src/sim/graph.h"

namespace zeppelin {
namespace {

struct GoldenRecord {
  const char* config;
  const char* direction;
  int tasks;
  double makespan_us;
  uint64_t result64;
  uint64_t label64;
};

// clang-format off
const GoldenRecord kGolden[] = {
    {"Zeppelin/A16/github", "fwd", 275, 0x1.3ee56eccccb85p+14, 0x046cce783da2f80fULL, 0x3fa4380f6382745fULL},
    {"Zeppelin/A16/github", "bwd", 275, 0x1.3a2229d9c535ep+15, 0x63cbcda16035bb1fULL, 0xbf9df794972ecacbULL},
    {"TE-CP/A16/github", "fwd", 512, 0x1.a86202f3b1993p+15, 0x156aeb621aa4703dULL, 0x738d42f256e4a69dULL},
    {"TE-CP/A16/github", "bwd", 512, 0x1.a75102f3b1991p+16, 0x8f263dd2e9b3d52dULL, 0xf2a7b5da8efdb34dULL},
    {"LLaMA-CP/A16/github", "fwd", 35, 0x1.9e4780ea94d8ap+14, 0x4316abca70016ec5ULL, 0x35da8514862b67a8ULL},
    {"LLaMA-CP/A16/github", "bwd", 36, 0x1.9e1d80ea94d8ap+15, 0xa49bee1431434e11ULL, 0x69eaffebd7177bafULL},
    {"Hybrid-DP/A16/github", "fwd", 216, 0x1.a3e8baf0c4dafp+14, 0x797b2f831ba872a9ULL, 0x948a2e89f99817c9ULL},
    {"Hybrid-DP/A16/github", "bwd", 216, 0x1.a3acbaf0c4dafp+15, 0x9c9f5c8f53640500ULL, 0xe2820f9d80882049ULL},
    {"Pack+Ulysses/A16/github", "fwd", 544, 0x1.cb51aeabb6f14p+14, 0xcc1923ae8761fb0cULL, 0xbc1730baba042af1ULL},
    {"Pack+Ulysses/A16/github", "bwd", 544, 0x1.bf5daeabb6f1p+15, 0xf588d504fc51acdfULL, 0x9d31bba9dc0bc3e9ULL},
    {"DoubleRing-CP/A16/github", "fwd", 512, 0x1.7231963837189p+14, 0xcf77774223274ff5ULL, 0xbc6b5c573a0b5387ULL},
    {"DoubleRing-CP/A16/github", "bwd", 512, 0x1.713b96383718cp+15, 0x32a2fa45a727d3f5ULL, 0xef8f4efe1ef27377ULL},
    {"Zeppelin/A16/arxiv", "fwd", 291, 0x1.2c4de605976a8p+14, 0x995281fdcb3ca963ULL, 0x95223d3f382aafa5ULL},
    {"Zeppelin/A16/arxiv", "bwd", 291, 0x1.28b819e78ddbcp+15, 0xc4024d9c141b9d64ULL, 0xc5d91a2a44190e5dULL},
    {"TE-CP/A16/arxiv", "fwd", 512, 0x1.a8642e09c12b4p+15, 0x0ca48551d2d01badULL, 0x738d42f256e4a69dULL},
    {"TE-CP/A16/arxiv", "bwd", 512, 0x1.a7532e09c12b2p+16, 0xa3f657d669593fa9ULL, 0xf2a7b5da8efdb34dULL},
    {"LLaMA-CP/A16/arxiv", "fwd", 35, 0x1.9e8ce3ac87198p+14, 0xd2e169ab95274fc5ULL, 0x35da8514862b67a8ULL},
    {"LLaMA-CP/A16/arxiv", "bwd", 36, 0x1.9e62e3ac87198p+15, 0x19489abf35cab0d1ULL, 0x69eaffebd7177bafULL},
    {"Hybrid-DP/A16/arxiv", "fwd", 207, 0x1.d12507af5e45bp+14, 0xe8c23484efb6ac87ULL, 0x884e62bc070ae419ULL},
    {"Hybrid-DP/A16/arxiv", "bwd", 207, 0x1.d0ef07af5e45bp+15, 0x9f498a000e8aacb6ULL, 0x927acb3200ad4ed5ULL},
    {"Pack+Ulysses/A16/arxiv", "fwd", 544, 0x1.f28cb38b2e368p+14, 0xcbdbcc9279d75963ULL, 0xbc1730baba042af1ULL},
    {"Pack+Ulysses/A16/arxiv", "bwd", 544, 0x1.e674b38b2e365p+15, 0x81a637d6f1cd22beULL, 0x9d31bba9dc0bc3e9ULL},
    {"DoubleRing-CP/A16/arxiv", "fwd", 512, 0x1.7235ec64563cap+14, 0x2f5b9734320c6825ULL, 0xbc6b5c573a0b5387ULL},
    {"DoubleRing-CP/A16/arxiv", "bwd", 512, 0x1.713fec64563cdp+15, 0x9ba57468f4919315ULL, 0xef8f4efe1ef27377ULL},
    {"Zeppelin/A64/github", "fwd", 7445, 0x1.5b72e188caa5p+15, 0x4ef1aa1dfb327186ULL, 0xc65044fe7a061e63ULL},
    {"Zeppelin/A64/github", "bwd", 7445, 0x1.43dd0e69a11e4p+16, 0xde819785f3e4ffc6ULL, 0x45f05bfd226d662bULL},
    {"TE-CP/A64/github", "fwd", 8192, 0x1.71fe78af7ba22p+17, 0xa4ad93ff1fb5a851ULL, 0xd5439ab71871c49bULL},
    {"TE-CP/A64/github", "bwd", 8192, 0x1.70e238af7ba24p+18, 0xd98978679fd600b9ULL, 0x11c574be6cbc9f7bULL},
    {"LLaMA-CP/A64/github", "fwd", 137, 0x1.23f7c59825255p+16, 0x9028f7103261336dULL, 0xbad6d859d9008679ULL},
    {"LLaMA-CP/A64/github", "bwd", 138, 0x1.23ed459825256p+17, 0xa8c5c0bddaad4615ULL, 0x63c59205a229521aULL},
    {"Hybrid-DP/A64/github", "fwd", 5365, 0x1.e6dd5e894100ep+16, 0x7bc6638f23cfbdd3ULL, 0xcd154a4e5b5bf590ULL},
    {"Hybrid-DP/A64/github", "bwd", 5365, 0x1.e519de894100ep+17, 0x04fb6f06ed7739c3ULL, 0xf87a0575048f95ccULL},
    {"Pack+Ulysses/A64/github", "fwd", 4224, 0x1.943370e9dd62ep+16, 0x573a2f1cfed06c57ULL, 0x205388484d489359ULL},
    {"Pack+Ulysses/A64/github", "bwd", 4224, 0x1.75e570e9dd654p+17, 0x12aca80b53155fe4ULL, 0x59534c1bceafe0d1ULL},
    {"DoubleRing-CP/A64/github", "fwd", 8192, 0x1.c8dfcc13cfac1p+15, 0xb4b64b57d753f827ULL, 0xae022af00a06afddULL},
    {"DoubleRing-CP/A64/github", "bwd", 8192, 0x1.c6fccc13cfabbp+16, 0xd9980a7fd6155ea1ULL, 0x27d7657547ae5085ULL},
    {"Zeppelin/A64/arxiv", "fwd", 9569, 0x1.6662c5726578bp+15, 0xeb2324bb841041d9ULL, 0x9d9913a3cb18b96dULL},
    {"Zeppelin/A64/arxiv", "bwd", 9569, 0x1.1b85b137bfc76p+16, 0xc8207b6b2297aaf8ULL, 0x513a52e8b5f2d389ULL},
    {"TE-CP/A64/arxiv", "fwd", 8192, 0x1.71abb5b68bdb9p+17, 0x09355ed5737f09baULL, 0xd5439ab71871c49bULL},
    {"TE-CP/A64/arxiv", "bwd", 8192, 0x1.708f75b68bdbbp+18, 0x9972ccf0439bd85eULL, 0x11c574be6cbc9f7bULL},
    {"LLaMA-CP/A64/arxiv", "fwd", 137, 0x1.f52c6ea90c597p+15, 0x485033edadd320efULL, 0xbad6d859d9008679ULL},
    {"LLaMA-CP/A64/arxiv", "bwd", 138, 0x1.f5176ea90c597p+16, 0xef6b86cdb95f833dULL, 0x63c59205a229521aULL},
    {"Hybrid-DP/A64/arxiv", "fwd", 2017, 0x1.13574241e29d5p+16, 0x8a85a4ad5a365aa6ULL, 0x71ae6c67ab894debULL},
    {"Hybrid-DP/A64/arxiv", "bwd", 2017, 0x1.127dc241e29d5p+17, 0xe21e51a5753d536aULL, 0x437ab02cfb821fb7ULL},
    {"Pack+Ulysses/A64/arxiv", "fwd", 4224, 0x1.976bda0b50c49p+16, 0x07a1d48e3a970903ULL, 0x205388484d489359ULL},
    {"Pack+Ulysses/A64/arxiv", "bwd", 4224, 0x1.7926da0b50c68p+17, 0x4a7466c016e7d752ULL, 0x59534c1bceafe0d1ULL},
    {"DoubleRing-CP/A64/arxiv", "fwd", 8192, 0x1.c794c0301091dp+15, 0x83ed8f5127492271ULL, 0xae022af00a06afddULL},
    {"DoubleRing-CP/A64/arxiv", "bwd", 8192, 0x1.c5b1c03010917p+16, 0x7899bfbb05918307ULL, 0x27d7657547ae5085ULL},
    {"Zeppelin/B16/github", "fwd", 275, 0x1.db7c8a3391c48p+12, 0x68775c69ea4680f5ULL, 0x3fa4380f6382745fULL},
    {"Zeppelin/B16/github", "bwd", 275, 0x1.de393f0f17d95p+13, 0x3e78a18a21c2e25eULL, 0xbf9df794972ecacbULL},
    {"TE-CP/B16/github", "fwd", 512, 0x1.6aed74bec3caap+15, 0xd6c8ad9da0b5a5c1ULL, 0x738d42f256e4a69dULL},
    {"TE-CP/B16/github", "bwd", 512, 0x1.69dc74bec3ca9p+16, 0xb3417542051f31e1ULL, 0xf2a7b5da8efdb34dULL},
    {"LLaMA-CP/B16/github", "fwd", 35, 0x1.53a2908370627p+13, 0x28ccf9657090cad5ULL, 0x35da8514862b67a8ULL},
    {"LLaMA-CP/B16/github", "bwd", 36, 0x1.534e908370627p+14, 0xa744c168d7e2d839ULL, 0x69eaffebd7177bafULL},
    {"Hybrid-DP/B16/github", "fwd", 216, 0x1.b0f65874355cp+13, 0xb27d21bd431b2768ULL, 0x948a2e89f99817c9ULL},
    {"Hybrid-DP/B16/github", "bwd", 216, 0x1.afca5874355cp+14, 0xcc7ae34e81b2a940ULL, 0xe2820f9d80882049ULL},
    {"Pack+Ulysses/B16/github", "fwd", 544, 0x1.2f939a0516062p+13, 0xb676c086559e3251ULL, 0xbc1730baba042af1ULL},
    {"Pack+Ulysses/B16/github", "bwd", 544, 0x1.29579a0516062p+14, 0xb02647f3c75d03d2ULL, 0x9d31bba9dc0bc3e9ULL},
    {"DoubleRing-CP/B16/github", "fwd", 512, 0x1.962f548d036c8p+13, 0x9494affd09cda465ULL, 0xbc6b5c573a0b5387ULL},
    {"DoubleRing-CP/B16/github", "bwd", 512, 0x1.94c3548d036c6p+14, 0x5a983e9ff28f3e25ULL, 0xef8f4efe1ef27377ULL},
    {"Zeppelin/B16/arxiv", "fwd", 291, 0x1.ced92fc468d03p+12, 0x74065bc1fa612d36ULL, 0x95223d3f382aafa5ULL},
    {"Zeppelin/B16/arxiv", "bwd", 291, 0x1.c55620e3d049cp+13, 0x365b792e183398bdULL, 0xc5d91a2a44190e5dULL},
    {"TE-CP/B16/arxiv", "fwd", 512, 0x1.6aee37067c70fp+15, 0x6558076b337095e5ULL, 0x738d42f256e4a69dULL},
    {"TE-CP/B16/arxiv", "bwd", 512, 0x1.69dd37067c70ep+16, 0xc9600414cd5276e1ULL, 0xf2a7b5da8efdb34dULL},
    {"LLaMA-CP/B16/arxiv", "fwd", 35, 0x1.53d3227199f64p+13, 0x1cf4edcb0d1e47b5ULL, 0x35da8514862b67a8ULL},
    {"LLaMA-CP/B16/arxiv", "bwd", 36, 0x1.537f227199f64p+14, 0x0ebe0f95f43abb99ULL, 0x69eaffebd7177bafULL},
    {"Hybrid-DP/B16/arxiv", "fwd", 207, 0x1.d975b669fb8dfp+13, 0xbb22127f94ca8a54ULL, 0x884e62bc070ae419ULL},
    {"Hybrid-DP/B16/arxiv", "bwd", 207, 0x1.d849b669fb8dfp+14, 0xf1b3c33b9fa9b5d5ULL, 0x927acb3200ad4ed5ULL},
    {"Pack+Ulysses/B16/arxiv", "fwd", 544, 0x1.58d395fd662b2p+13, 0xbcf5dfb9fd623763ULL, 0xbc1730baba042af1ULL},
    {"Pack+Ulysses/B16/arxiv", "bwd", 544, 0x1.524f95fd662b2p+14, 0x9f4ce575604dded9ULL, 0x9d31bba9dc0bc3e9ULL},
    {"DoubleRing-CP/B16/arxiv", "fwd", 512, 0x1.96325dabe605cp+13, 0x8cc3a015736fca65ULL, 0xbc6b5c573a0b5387ULL},
    {"DoubleRing-CP/B16/arxiv", "bwd", 512, 0x1.94c65dabe605ap+14, 0x6e4040215a62d645ULL, 0xef8f4efe1ef27377ULL},
    {"Zeppelin/B64/github", "fwd", 10505, 0x1.2ad78d65cb526p+15, 0xf639e3ddd2ea8066ULL, 0xf2a09d699cc5de27ULL},
    {"Zeppelin/B64/github", "bwd", 10505, 0x1.158faa0b81be4p+16, 0x6c786585d4a6a518ULL, 0x6f2e55c5c9a9a4e3ULL},
    {"TE-CP/B64/github", "fwd", 8192, 0x1.629636f0012fap+17, 0x391f300b1e0935dbULL, 0xd5439ab71871c49bULL},
    {"TE-CP/B64/github", "bwd", 8192, 0x1.6179f6f0012fap+18, 0x99134e4a7114e442ULL, 0x11c574be6cbc9f7bULL},
    {"LLaMA-CP/B64/github", "fwd", 137, 0x1.001be5dc933e6p+15, 0x5e5e649f05cfa1b9ULL, 0xbad6d859d9008679ULL},
    {"LLaMA-CP/B64/github", "bwd", 138, 0x1.0006e5dc933e6p+16, 0x1f3af7c90db939efULL, 0x63c59205a229521aULL},
    {"Hybrid-DP/B64/github", "fwd", 5365, 0x1.a32d872e3217ap+16, 0x6205f8b4c887de63ULL, 0xcd154a4e5b5bf590ULL},
    {"Hybrid-DP/B64/github", "bwd", 5365, 0x1.a16a072e3217ap+17, 0x4a73e89617997309ULL, 0xf87a0575048f95ccULL},
    {"Pack+Ulysses/B64/github", "fwd", 4224, 0x1.a8ed8535a61bep+13, 0x953da81774140f7aULL, 0x205388484d489359ULL},
    {"Pack+Ulysses/B64/github", "bwd", 4224, 0x1.92a98535a61bap+14, 0x9168215ebd5fda3cULL, 0x59534c1bceafe0d1ULL},
    {"DoubleRing-CP/B64/github", "fwd", 8192, 0x1.74d25d51f8ff4p+15, 0x0a573858ff15a5ceULL, 0xae022af00a06afddULL},
    {"DoubleRing-CP/B64/github", "bwd", 8192, 0x1.73395d51f8ff1p+16, 0x0855e0ad724ba4a7ULL, 0x27d7657547ae5085ULL},
    {"Zeppelin/B64/arxiv", "fwd", 13397, 0x1.2346f2d10a116p+15, 0xc8f6eedfe2c469fcULL, 0xad287719f22c21d9ULL},
    {"Zeppelin/B64/arxiv", "bwd", 13397, 0x1.da8f2e127053fp+15, 0xcfd316d5e26e72fcULL, 0xe8db9abd8186cb45ULL},
    {"TE-CP/B64/arxiv", "fwd", 8192, 0x1.62793f7f46dd5p+17, 0x5c514d6f5b600156ULL, 0xd5439ab71871c49bULL},
    {"TE-CP/B64/arxiv", "bwd", 8192, 0x1.615cff7f46dd5p+18, 0xc73f511bbe17b9e6ULL, 0x11c574be6cbc9f7bULL},
    {"LLaMA-CP/B64/arxiv", "fwd", 137, 0x1.c648d15a7b20cp+14, 0x531c78b3b4e93883ULL, 0xbad6d859d9008679ULL},
    {"LLaMA-CP/B64/arxiv", "bwd", 138, 0x1.c61ed15a7b20cp+15, 0x4b38172915733be7ULL, 0x63c59205a229521aULL},
    {"Hybrid-DP/B64/arxiv", "fwd", 2017, 0x1.a8d58224b2e7cp+15, 0xe4c70aa55f555d47ULL, 0x71ae6c67ab894debULL},
    {"Hybrid-DP/B64/arxiv", "bwd", 2017, 0x1.a7228224b2e7cp+16, 0xbc8458c75a1429b2ULL, 0x437ab02cfb821fb7ULL},
    {"Pack+Ulysses/B64/arxiv", "fwd", 4224, 0x1.cb00a6f76cd07p+13, 0xec9a69ce47dd8c0cULL, 0x205388484d489359ULL},
    {"Pack+Ulysses/B64/arxiv", "bwd", 4224, 0x1.b4c8a6f76cd03p+14, 0x864e1e9c0444441eULL, 0x59534c1bceafe0d1ULL},
    {"DoubleRing-CP/B64/arxiv", "fwd", 8192, 0x1.745e7f8f0fb61p+15, 0x3fe46dd1372abd44ULL, 0xae022af00a06afddULL},
    {"DoubleRing-CP/B64/arxiv", "bwd", 8192, 0x1.72c57f8f0fb5ep+16, 0x8686990fc3768f8aULL, 0x27d7657547ae5085ULL},
    {"train_iter/b0", "fwd", 7445, 0x1.5b72e188caa5p+15, 0x4ef1aa1dfb327186ULL, 0xc65044fe7a061e63ULL},
    {"train_iter/b0", "bwd", 7445, 0x1.43dd0e69a11e4p+16, 0xde819785f3e4ffc6ULL, 0x45f05bfd226d662bULL},
    {"train_iter/b1", "fwd", 11989, 0x1.a796edbf587a7p+15, 0xd6b20068dd5f16f5ULL, 0xbef4777256531a5eULL},
    {"train_iter/b1", "bwd", 11989, 0x1.78934eca53facp+16, 0x1b50f187bf75dbfeULL, 0xd1efddd083ba603aULL},
    {"train_iter/b2", "fwd", 9349, 0x1.aa6eb6aebab1ep+15, 0xadbd67f48a943972ULL, 0x6d11b6782492b099ULL},
    {"train_iter/b2", "bwd", 9349, 0x1.96d212e1095ecp+16, 0x8db96a595108c120ULL, 0x16f5523735976f0dULL},
    {"train_iter/b3", "fwd", 14394, 0x1.9b23e66a4137dp+15, 0x5d84c5517a69b60cULL, 0x7745bd5fa927532fULL},
    {"train_iter/b3", "bwd", 14394, 0x1.a57d459bb861fp+16, 0xad3fe08f82e35a6eULL, 0x1d105d4d845ac517ULL},
};
// clang-format on

class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

GoldenRecord Digest(const std::string& config, Direction direction, const TaskGraph& graph,
                    const SimResult& result, std::deque<std::string>* names) {
  Fnv1a result_hash;
  for (int i = 0; i < graph.size(); ++i) {
    result_hash.Double(result.start_us[i]);
    result_hash.Double(result.finish_us[i]);
  }
  for (const ResourceUsage& u : result.usage) {
    result_hash.Double(u.busy_us);
    for (double c : u.by_category) {
      result_hash.Double(c);
    }
  }
  Fnv1a label_hash;
  for (TaskId id = 0; id < graph.size(); ++id) {
    const std::string label = graph.Label(id);
    label_hash.Bytes(label.data(), label.size());
    label_hash.Bytes("\n", 1);
  }
  names->push_back(config);
  return GoldenRecord{names->back().c_str(), direction == Direction::kForward ? "fwd" : "bwd",
                      graph.size(), result.makespan_us, result_hash.value(),
                      label_hash.value()};
}

std::vector<std::unique_ptr<Strategy>> AllStrategies() {
  std::vector<std::unique_ptr<Strategy>> out;
  out.push_back(std::make_unique<ZeppelinStrategy>());
  out.push_back(std::make_unique<TeCpStrategy>());
  out.push_back(std::make_unique<LlamaCpStrategy>());
  out.push_back(std::make_unique<HybridDpStrategy>());
  out.push_back(std::make_unique<PackingUlyssesStrategy>());
  out.push_back(std::make_unique<DoubleRingStrategy>());
  return out;
}

// Plans `batch` on `strategy` and simulates one layer in each direction.
void RunBoth(const std::string& config, Strategy& strategy, const Batch& batch,
             const Trainer& trainer, std::vector<GoldenRecord>* out,
             std::deque<std::string>* names) {
  strategy.Plan(batch, trainer.cost_model(), trainer.fabric());
  const Engine engine(trainer.fabric());
  for (const Direction d : {Direction::kForward, Direction::kBackward}) {
    TaskGraph graph;
    strategy.EmitLayer(graph, d);
    out->push_back(Digest(config, d, graph, engine.Run(graph), names));
  }
}

std::vector<GoldenRecord> ComputeAll(std::deque<std::string>* names) {
  std::vector<GoldenRecord> out;
  const TransformerConfig model = MakeLlama7B();
  for (const char cluster_name : {'A', 'B'}) {
    for (const int gpus : {16, 64}) {
      const ClusterSpec cluster =
          cluster_name == 'A' ? MakeClusterA(gpus / 8) : MakeClusterB(gpus / 8);
      const Trainer trainer(model, cluster);
      for (const LengthDistribution& dist :
           {MakeGithubDistribution(), MakeArxivDistribution()}) {
        BatchSampler sampler(dist, int64_t{4096} * gpus, /*seed=*/1);
        const Batch batch = sampler.NextBatch();
        for (auto& strategy : AllStrategies()) {
          const std::string config = strategy->name() + "/" + cluster_name +
                                     std::to_string(gpus) + "/" + dist.name();
          RunBoth(config, *strategy, batch, trainer, &out, names);
        }
      }
    }
  }
  // The layered benchmark's training iteration: one strategy across batches.
  const Trainer trainer(model, MakeClusterA(8));
  BatchSampler sampler(MakeGithubDistribution(), 262144, /*seed=*/1);
  ZeppelinStrategy strategy;
  for (int b = 0; b < 4; ++b) {
    RunBoth("train_iter/b" + std::to_string(b), strategy, sampler.NextBatch(), trainer, &out,
            names);
  }
  return out;
}

TEST(SimGoldenTest, EveryRecordMatches) {
  std::deque<std::string> names;  // Stable storage for the records' config names.
  const std::vector<GoldenRecord> computed = ComputeAll(&names);
  if (std::getenv("ZEPPELIN_GOLDEN_PRINT") != nullptr) {
    for (const GoldenRecord& r : computed) {
      std::printf("    {\"%s\", \"%s\", %d, %a, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n",
                  r.config, r.direction, r.tasks, r.makespan_us, r.result64, r.label64);
    }
  }
  ASSERT_EQ(computed.size(), std::size(kGolden));
  for (size_t i = 0; i < computed.size(); ++i) {
    const GoldenRecord& want = kGolden[i];
    const GoldenRecord& got = computed[i];
    SCOPED_TRACE(std::string(want.config) + " " + want.direction);
    EXPECT_STREQ(got.config, want.config);
    EXPECT_STREQ(got.direction, want.direction);
    EXPECT_EQ(got.tasks, want.tasks);
    EXPECT_EQ(got.makespan_us, want.makespan_us);
    EXPECT_EQ(got.result64, want.result64);
    EXPECT_EQ(got.label64, want.label64);
  }
}

// Trace digests: FNV-1a over every chrome-trace slice (lane, start, duration,
// name, category) of one simulated layer, with the slices sorted by (pid,
// tid, start, name). Sorting pins the trace's content but not the order in
// which same-instant slices were added, which the engine leaves open. Taken
// from the engine that still admitted through a dirty-resource rescan.
struct TraceGolden {
  const char* config;
  const char* direction;
  size_t slices;
  uint64_t trace64;
};

const TraceGolden kTraceGolden[] = {
    {"train_iter/b0", "fwd", 11627, 0xfa2981d7e2da3f64ULL},
    {"TE-CP/A16/github", "bwd", 752, 0xb9fecc860d62646bULL},
};

uint64_t TraceDigest(const ChromeTraceWriter& trace) {
  std::vector<const TraceEvent*> slices;
  for (const TraceEvent& ev : trace.events()) {
    slices.push_back(&ev);
  }
  std::sort(slices.begin(), slices.end(), [](const TraceEvent* a, const TraceEvent* b) {
    if (a->pid != b->pid) {
      return a->pid < b->pid;
    }
    if (a->tid != b->tid) {
      return a->tid < b->tid;
    }
    if (a->start_us != b->start_us) {
      return a->start_us < b->start_us;
    }
    return a->name < b->name;
  });
  Fnv1a hash;
  for (const TraceEvent* ev : slices) {
    hash.Bytes(&ev->pid, sizeof(ev->pid));
    hash.Bytes(&ev->tid, sizeof(ev->tid));
    hash.Double(ev->start_us);
    hash.Double(ev->duration_us);
    hash.Bytes(ev->name.data(), ev->name.size());
    hash.Bytes("\n", 1);
    hash.Bytes(ev->category.data(), ev->category.size());
    hash.Bytes("\n", 1);
  }
  return hash.value();
}

TEST(SimGoldenTest, TraceSlicesMatch) {
  const TransformerConfig model = MakeLlama7B();
  // The layered benchmark's training-iteration shape, first batch.
  const Trainer train_iter(model, MakeClusterA(8));
  BatchSampler train_sampler(MakeGithubDistribution(), 262144, /*seed=*/1);
  ZeppelinStrategy zeppelin;
  zeppelin.Plan(train_sampler.NextBatch(), train_iter.cost_model(), train_iter.fabric());
  // A baseline: TE-CP on 16 GPUs of cluster A.
  const Trainer small(model, MakeClusterA(2));
  BatchSampler small_sampler(MakeGithubDistribution(), int64_t{4096} * 16, /*seed=*/1);
  TeCpStrategy te_cp;
  te_cp.Plan(small_sampler.NextBatch(), small.cost_model(), small.fabric());

  struct Case {
    const char* config;
    Direction direction;
    Strategy* strategy;
    const Trainer* trainer;
  };
  const Case cases[] = {
      {"train_iter/b0", Direction::kForward, &zeppelin, &train_iter},
      {"TE-CP/A16/github", Direction::kBackward, &te_cp, &small},
  };
  ASSERT_EQ(std::size(cases), std::size(kTraceGolden));
  for (size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    const char* direction = c.direction == Direction::kForward ? "fwd" : "bwd";
    TaskGraph graph;
    c.strategy->EmitLayer(graph, c.direction);
    ChromeTraceWriter trace;
    Engine(c.trainer->fabric()).Run(graph, &trace);
    const uint64_t digest = TraceDigest(trace);
    if (std::getenv("ZEPPELIN_GOLDEN_PRINT") != nullptr) {
      std::printf("    {\"%s\", \"%s\", %zu, 0x%016" PRIx64 "ULL},\n", c.config, direction,
                  trace.event_count(), digest);
    }
    SCOPED_TRACE(std::string(c.config) + " " + direction);
    EXPECT_STREQ(c.config, kTraceGolden[i].config);
    EXPECT_STREQ(direction, kTraceGolden[i].direction);
    EXPECT_EQ(trace.event_count(), kTraceGolden[i].slices);
    EXPECT_EQ(digest, kTraceGolden[i].trace64);
  }
}

}  // namespace
}  // namespace zeppelin
