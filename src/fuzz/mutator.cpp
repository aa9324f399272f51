#include "fuzz/mutator.hpp"

#include <algorithm>

#include "riscv/decode.hpp"

namespace specure::fuzz {

using riscv::Program;

std::string_view mutation_name(MutationOp op) {
  switch (op) {
    case MutationOp::kBitFlip: return "bit_flip";
    case MutationOp::kByteFlip: return "byte_flip";
    case MutationOp::kSwapInstructions: return "swap";
    case MutationOp::kDeleteInstruction: return "delete";
    case MutationOp::kCloneInstruction: return "clone";
    case MutationOp::kReplaceInstruction: return "replace";
    case MutationOp::kInsertInstruction: return "insert";
    case MutationOp::kMutateImmediate: return "imm_tweak";
    case MutationOp::kMutateData: return "data";
    case MutationOp::kCount: break;
  }
  return "?";
}

namespace {

void ensure_nonempty(Program& p) {
  if (p.code.empty()) p.code.push_back(riscv::enc_nop());
}

}  // namespace

Program apply_mutation(const Program& input, MutationOp op, util::Rng& rng) {
  Program p = input;
  ensure_nonempty(p);
  const std::size_t n = p.code.size();
  switch (op) {
    case MutationOp::kBitFlip: {
      const std::size_t i = rng.below(n);
      p.code[i] ^= 1u << rng.below(32);
      break;
    }
    case MutationOp::kByteFlip: {
      const std::size_t i = rng.below(n);
      p.code[i] ^= 0xffu << (8 * rng.below(4));
      break;
    }
    case MutationOp::kSwapInstructions: {
      const std::size_t i = rng.below(n);
      const std::size_t j = rng.below(n);
      std::swap(p.code[i], p.code[j]);
      break;
    }
    case MutationOp::kDeleteInstruction: {
      if (n > 1) {
        p.code.erase(p.code.begin() + static_cast<long>(rng.below(n)));
      }
      break;
    }
    case MutationOp::kCloneInstruction: {
      const std::size_t i = rng.below(n);
      const std::size_t j = rng.below(n + 1);
      p.code.insert(p.code.begin() + static_cast<long>(j), p.code[i]);
      break;
    }
    case MutationOp::kReplaceInstruction: {
      const std::size_t i = rng.below(n);
      p.code[i] = riscv::random_instruction(rng, i, n);
      break;
    }
    case MutationOp::kInsertInstruction: {
      const std::size_t j = rng.below(n + 1);
      p.code.insert(p.code.begin() + static_cast<long>(j),
                    riscv::random_instruction(rng, j, n + 1));
      break;
    }
    case MutationOp::kMutateImmediate: {
      const std::size_t i = rng.below(n);
      const auto d = riscv::decode(p.code[i]);
      if (d.valid()) {
        // Re-encode with a perturbed immediate; keeps the op and registers.
        const std::int64_t delta =
            static_cast<std::int64_t>(rng.below(64)) - 32;
        std::int64_t imm = d.imm + delta;
        if (riscv::is_branch(d.op) || d.op == riscv::Op::kJal) {
          imm &= ~1LL;  // keep control-flow targets halfword aligned
        }
        p.code[i] = riscv::encode(d.op, d.rd, d.rs1, d.rs2, imm, d.csr);
      } else {
        p.code[i] ^= 0xff0;
      }
      break;
    }
    case MutationOp::kMutateData: {
      if (p.data.empty()) p.data.resize(64, 0);
      const std::size_t i = rng.below(p.data.size());
      p.data[i] = static_cast<std::uint8_t>(rng.below(256));
      break;
    }
    case MutationOp::kCount:
      break;
  }
  ensure_nonempty(p);
  return p;
}

Program mutate(const Program& input, util::Rng& rng,
               const MutatorOptions& options) {
  Program p = input;
  const unsigned stack = static_cast<unsigned>(
      rng.range(options.min_stack, options.max_stack));
  for (unsigned k = 0; k < stack; ++k) {
    const auto op =
        static_cast<MutationOp>(rng.below(static_cast<std::uint64_t>(
            MutationOp::kCount)));
    p = apply_mutation(p, op, rng);
  }
  if (p.code.size() > options.max_code_len) {
    p.code.resize(options.max_code_len);
  }
  if (p.data.size() > options.max_data_len) {
    p.data.resize(options.max_data_len);
  }
  return p;
}

Program splice(const Program& a, const Program& b, util::Rng& rng) {
  Program out;
  const std::size_t cut_a = a.code.empty() ? 0 : rng.below(a.code.size());
  const std::size_t cut_b = b.code.empty() ? 0 : rng.below(b.code.size());
  out.code.assign(a.code.begin(), a.code.begin() + static_cast<long>(cut_a));
  out.code.insert(out.code.end(), b.code.begin() + static_cast<long>(cut_b),
                  b.code.end());
  out.data = rng.chance(1, 2) ? a.data : b.data;
  if (out.code.empty()) out.code.push_back(riscv::enc_nop());
  return out;
}

}  // namespace specure::fuzz
