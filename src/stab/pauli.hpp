// Pauli operators on n qubits, in the phase-tracked symplectic form
// P = i^phase * prod_j X_j^{x_j} Z_j^{z_j}.
//
// PauliString is the exchange format between the tableau simulator, the
// stabilizer-group membership tests, and the compiler's verification layer
// (e.g. "is K_v = X_v Z_{N(v)} in the final state's stabilizer group?").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace epg {

enum class PauliOp : std::uint8_t { I, X, Y, Z };

/// A single-qubit Pauli with a real sign (never +-i); the unit the
/// single-qubit Clifford group acts on.
struct SignedPauli1 {
  PauliOp op = PauliOp::I;
  bool negative = false;

  bool operator==(const SignedPauli1&) const = default;
};

/// Product of two anticommuting non-identity single-qubit Paulis, with the
/// leading i of Y = iXZ handled by the caller's convention: returns
/// i * (a * b), which is always a real signed Pauli when a != b.
SignedPauli1 i_times_product(SignedPauli1 a, SignedPauli1 b);

class PauliString {
 public:
  PauliString() = default;
  explicit PauliString(std::size_t n);

  /// Identity with a single op at qubit q.
  static PauliString single(std::size_t n, std::size_t q, PauliOp op);

  std::size_t num_qubits() const { return n_; }

  PauliOp op_at(std::size_t q) const;
  /// Replaces the op at q, keeping the convention phase for Y (adds/removes
  /// the implicit i so Hermiticity is preserved).
  void set_op(std::size_t q, PauliOp op);

  bool x_bit(std::size_t q) const;
  bool z_bit(std::size_t q) const;

  /// Number of non-identity positions.
  std::size_t weight() const;
  std::vector<std::size_t> support() const;

  bool is_hermitian() const;
  /// +1 or -1; only valid for Hermitian strings.
  int sign() const;
  /// Multiply the global phase by -1.
  void negate();

  bool commutes_with(const PauliString& other) const;

  /// In-place product: *this = *this * rhs (operator order matters only for
  /// the phase).
  PauliString& operator*=(const PauliString& rhs);

  bool operator==(const PauliString& other) const = default;

  /// e.g. "+XIZY" (or "+i..." for non-Hermitian products).
  std::string str() const;

  const std::vector<std::uint64_t>& x_words() const { return x_; }
  const std::vector<std::uint64_t>& z_words() const { return z_; }

 private:
  std::size_t n_ = 0;
  int phase_ = 0;  // i^phase_, mod 4
  std::vector<std::uint64_t> x_, z_;
};

}  // namespace epg
