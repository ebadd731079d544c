//===- lang/Printer.cpp - JP pretty printer ----------------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "lang/Printer.h"

#include "support/Casting.h"

#include <cstdio>

using namespace opd;

namespace {

/// Renders a probability with enough digits to round-trip.
std::string printProbability(double P) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", P);
  return Buf;
}

/// Parenthesized-when-needed expression printer. JP has two precedence
/// tiers below comparison; we print conservatively: nested binary
/// operands are parenthesized unless they are primaries.
class ExprPrinter {
public:
  static std::string print(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      return std::to_string(cast<IntLitExpr>(&E)->value());
    case Expr::Kind::ParamRef:
      return cast<ParamRefExpr>(&E)->name();
    case Expr::Kind::Unary:
      // Appending, not "-" + ..., which GCC 12 misreports under
      // -Wrestrict at -O2 and above.
      return std::string("-").append(
          printOperand(*cast<UnaryExpr>(&E)->operand()));
    case Expr::Kind::Binary: {
      const auto *Bin = cast<BinaryExpr>(&E);
      return printOperand(*Bin->lhs()) + " " + opSpelling(Bin->op()) +
             " " + printOperand(*Bin->rhs());
    }
    }
    assert(false && "unhandled expression kind");
    return "";
  }

private:
  static std::string printOperand(const Expr &E) {
    if (E.kind() == Expr::Kind::Binary)
      return std::string("(").append(print(E)).append(")");
    return print(E);
  }

  static const char *opSpelling(BinaryOp Op) {
    switch (Op) {
    case BinaryOp::Add:
      return "+";
    case BinaryOp::Sub:
      return "-";
    case BinaryOp::Mul:
      return "*";
    case BinaryOp::Div:
      return "/";
    case BinaryOp::Rem:
      return "%";
    case BinaryOp::Lt:
      return "<";
    case BinaryOp::Le:
      return "<=";
    case BinaryOp::Gt:
      return ">";
    case BinaryOp::Ge:
      return ">=";
    case BinaryOp::Eq:
      return "==";
    case BinaryOp::Ne:
      return "!=";
    }
    return "?";
  }
};

/// Indentation-tracking statement printer.
class StmtPrinter {
public:
  explicit StmtPrinter(std::string &Out) : Out(Out) {}

  void printBlock(const BlockStmt &B, unsigned Indent) {
    Out += "{\n";
    for (const std::unique_ptr<Stmt> &S : B.stmts())
      printStmt(*S, Indent + 1);
    indent(Indent);
    Out += "}";
  }

private:
  void indent(unsigned Level) { Out.append(2 * Level, ' '); }

  void printStmt(const Stmt &S, unsigned Indent) {
    indent(Indent);
    switch (S.kind()) {
    case Stmt::Kind::Block:
      printBlock(*cast<BlockStmt>(&S), Indent);
      Out += "\n";
      return;
    case Stmt::Kind::Loop: {
      const auto *Loop = cast<LoopStmt>(&S);
      Out += "loop ";
      if (Loop->hasVar())
        Out += Loop->varName() + " ";
      Out += "times " + ExprPrinter::print(*Loop->count()) + " ";
      printBlock(*Loop->body(), Indent);
      Out += "\n";
      return;
    }
    case Stmt::Kind::Branch: {
      const auto *Branch = cast<BranchStmt>(&S);
      Out += "branch";
      if (!Branch->label().empty())
        Out += " " + Branch->label();
      if (Branch->flipProbability() < 1.0)
        Out += " flip " + printProbability(Branch->flipProbability());
      Out += ";\n";
      return;
    }
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(&S);
      Out += "if " + printProbability(If->probability()) + " ";
      printBlock(*If->thenBlock(), Indent);
      if (If->elseBlock()) {
        Out += " else ";
        printBlock(*If->elseBlock(), Indent);
      }
      Out += "\n";
      return;
    }
    case Stmt::Kind::When: {
      const auto *When = cast<WhenStmt>(&S);
      Out += "when (" + ExprPrinter::print(*When->cond()) + ") ";
      printBlock(*When->thenBlock(), Indent);
      if (When->elseBlock()) {
        Out += " else ";
        printBlock(*When->elseBlock(), Indent);
      }
      Out += "\n";
      return;
    }
    case Stmt::Kind::Call: {
      const auto *Call = cast<CallStmt>(&S);
      Out += "call " + Call->callee() + "(";
      for (size_t I = 0; I != Call->args().size(); ++I) {
        if (I != 0)
          Out += ", ";
        Out += ExprPrinter::print(*Call->args()[I]);
      }
      Out += ");\n";
      return;
    }
    case Stmt::Kind::Pick: {
      const auto *Pick = cast<PickStmt>(&S);
      Out += "pick {\n";
      for (const PickStmt::Arm &Arm : Pick->arms()) {
        indent(Indent + 1);
        Out += "weight " + std::to_string(Arm.Weight) + " ";
        printBlock(*Arm.Body, Indent + 1);
        Out += "\n";
      }
      indent(Indent);
      Out += "}\n";
      return;
    }
    }
  }

  std::string &Out;
};

} // namespace

std::string opd::printExpr(const Expr &E) { return ExprPrinter::print(E); }

std::string opd::printProgram(const Program &Prog) {
  std::string Out = "program " + Prog.name() + ";\n\n";
  for (const std::unique_ptr<MethodDecl> &M : Prog.methods()) {
    Out += "method " + M->name() + "(";
    for (size_t I = 0; I != M->params().size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += M->params()[I];
    }
    Out += ") ";
    StmtPrinter Printer(Out);
    Printer.printBlock(*M->body(), 0);
    Out += "\n\n";
  }
  return Out;
}
