#include "graph/builder.hpp"

#include <map>
#include <string>

#include "common/error.hpp"

namespace pnp::graph {

namespace {

std::string instr_text(const ir::Instruction& in) {
  using ir::Opcode;
  if (in.op == Opcode::Call) return "call @" + in.aux;
  if (in.op == Opcode::ICmp || in.op == Opcode::FCmp)
    return std::string(ir::opcode_name(in.op)) + " " + in.aux;
  if (in.op == Opcode::AtomicRMW) return "atomicrmw " + in.aux;
  std::string t;
  if (in.type != ir::Type::Void) t = " " + std::string(ir::type_name(in.type));
  return std::string(ir::opcode_name(in.op)) + t;
}

}  // namespace

FlowGraph build_flow_graph(const ir::Module& m) {
  FlowGraph g;
  g.name = m.name;

  struct FnInfo {
    // node id of each instruction, addressed by (block, instr) position
    std::vector<std::vector<int>> instr_node;
    int entry_node = -1;
    std::vector<int> ret_nodes;
  };
  std::map<std::string, FnInfo> fn_info;

  // Pass 1: create instruction nodes for all functions.
  for (const auto& fn : m.functions) {
    FnInfo info;
    info.instr_node.resize(fn.blocks.size());
    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      const auto& b = fn.blocks[bi];
      for (const auto& in : b.instrs) {
        const int nid = g.add_node(NodeKind::Instruction, instr_text(in));
        info.instr_node[bi].push_back(nid);
        if (in.op == ir::Opcode::Ret) info.ret_nodes.push_back(nid);
      }
    }
    if (!fn.blocks.empty() && !fn.blocks[0].instrs.empty())
      info.entry_node = info.instr_node[0][0];
    fn_info[fn.name] = std::move(info);
  }

  // Stub nodes for external callees, created lazily.
  std::map<std::string, int> extern_node;
  auto extern_stub = [&](const std::string& callee) {
    auto it = extern_node.find(callee);
    if (it != extern_node.end()) return it->second;
    const int nid = g.add_node(NodeKind::Instruction, "decl @" + callee);
    extern_node[callee] = nid;
    return nid;
  };

  // Pass 2: variables, constants, and all edges.
  for (const auto& fn : m.functions) {
    FnInfo& info = fn_info[fn.name];

    // Variable nodes for args and temps, per function (globals below).
    std::map<int, int> arg_node, temp_node;
    std::map<std::pair<int, long long>, int> const_int_node;
    std::map<std::pair<int, double>, int> const_float_node;

    auto var_node_for = [&](const ir::Value& v) -> int {
      switch (v.kind) {
        case ir::Value::Kind::Arg: {
          auto it = arg_node.find(v.index);
          if (it != arg_node.end()) return it->second;
          const int nid = g.add_node(
              NodeKind::Variable,
              "var " + std::string(ir::type_name(v.type)));
          arg_node[v.index] = nid;
          return nid;
        }
        case ir::Value::Kind::Temp: {
          auto it = temp_node.find(v.index);
          if (it != temp_node.end()) return it->second;
          const int nid = g.add_node(
              NodeKind::Variable,
              "var " + std::string(ir::type_name(v.type)));
          temp_node[v.index] = nid;
          return nid;
        }
        case ir::Value::Kind::ConstInt: {
          auto key = std::make_pair(static_cast<int>(v.type), v.ival);
          auto it = const_int_node.find(key);
          if (it != const_int_node.end()) return it->second;
          const int nid = g.add_node(
              NodeKind::Constant,
              "const " + std::string(ir::type_name(v.type)));
          const_int_node[key] = nid;
          return nid;
        }
        case ir::Value::Kind::ConstFloat: {
          auto key = std::make_pair(static_cast<int>(v.type), v.fval);
          auto it = const_float_node.find(key);
          if (it != const_float_node.end()) return it->second;
          const int nid = g.add_node(
              NodeKind::Constant,
              "const " + std::string(ir::type_name(v.type)));
          const_float_node[key] = nid;
          return nid;
        }
        default:
          PNP_CHECK_MSG(false, "not a data operand");
      }
    };

    // Global variable nodes (per function to keep locality of the region
    // graph; extracted modules have one function anyway).
    std::map<int, int> global_node;
    auto global_node_for = [&](int gi) {
      auto it = global_node.find(gi);
      if (it != global_node.end()) return it->second;
      const auto& gl = m.globals[static_cast<std::size_t>(gi)];
      const int nid = g.add_node(
          NodeKind::Variable,
          "global " + std::string(ir::type_name(gl.elem_type)));
      global_node[gi] = nid;
      return nid;
    };

    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      const auto& b = fn.blocks[bi];
      for (std::size_t ii = 0; ii < b.instrs.size(); ++ii) {
        const ir::Instruction& in = b.instrs[ii];
        const int self = info.instr_node[bi][ii];

        // Control: fallthrough to the next instruction in the block.
        if (ii + 1 < b.instrs.size())
          g.add_edge(self, info.instr_node[bi][ii + 1], EdgeRelation::Control,
                     0);

        // Control: terminator to successor block heads.
        if (in.op == ir::Opcode::Br || in.op == ir::Opcode::CondBr) {
          int ordinal = 0;
          for (const auto& v : in.operands) {
            if (v.kind != ir::Value::Kind::Block) continue;
            const auto& succ = fn.blocks[static_cast<std::size_t>(v.index)];
            PNP_CHECK_MSG(!succ.instrs.empty(), "empty successor block");
            g.add_edge(self,
                       info.instr_node[static_cast<std::size_t>(v.index)][0],
                       EdgeRelation::Control, ordinal++);
          }
        }

        // Data: operand uses.
        int pos = 0;
        for (const auto& v : in.operands) {
          switch (v.kind) {
            case ir::Value::Kind::Block:
              break;  // not data flow
            case ir::Value::Kind::Global:
              g.add_edge(global_node_for(v.index), self, EdgeRelation::Data,
                         pos);
              break;
            case ir::Value::Kind::Arg:
            case ir::Value::Kind::Temp:
            case ir::Value::Kind::ConstInt:
            case ir::Value::Kind::ConstFloat:
              g.add_edge(var_node_for(v), self, EdgeRelation::Data, pos);
              break;
            case ir::Value::Kind::None:
              PNP_CHECK_MSG(false, "operand of kind None");
          }
          ++pos;
        }

        // Data: result definition.
        if (in.has_result()) {
          const ir::Type t =
              (in.op == ir::Opcode::Alloca) ? ir::Type::Ptr : in.type;
          g.add_edge(self, var_node_for(ir::Value::temp(in.result, t)),
                     EdgeRelation::Data, 0);
        }

        // Call flow.
        if (in.op == ir::Opcode::Call) {
          auto target = fn_info.find(in.aux);
          if (target != fn_info.end() && target->second.entry_node >= 0) {
            g.add_edge(self, target->second.entry_node, EdgeRelation::Call, 0);
            for (int ret : target->second.ret_nodes)
              g.add_edge(ret, self, EdgeRelation::Call, 1);
          } else {
            const int stub = extern_stub(in.aux);
            g.add_edge(self, stub, EdgeRelation::Call, 0);
            g.add_edge(stub, self, EdgeRelation::Call, 1);
          }
        }
      }
    }
  }

  return g;
}

GraphTensors to_tensors(const FlowGraph& g, const Vocabulary& vocab) {
  GraphTensors t;
  t.name = g.name;
  t.num_nodes = g.num_nodes();
  t.token.reserve(g.nodes().size());
  t.kind.reserve(g.nodes().size());
  for (const auto& n : g.nodes()) {
    t.token.push_back(vocab.id_or_oov(n.text));
    t.kind.push_back(static_cast<int>(n.kind));
  }
  for (const auto& e : g.edges()) {
    const int fwd = 2 * static_cast<int>(e.rel);
    t.rel_edges[static_cast<std::size_t>(fwd)].emplace_back(e.src, e.dst);
    t.rel_edges[static_cast<std::size_t>(fwd + 1)].emplace_back(e.dst, e.src);
  }
  // Build the CSR message-passing form once, up front, so encode() never
  // pays for it and the tensors can be shared read-only across threads.
  t.finalize();
  return t;
}

}  // namespace pnp::graph
