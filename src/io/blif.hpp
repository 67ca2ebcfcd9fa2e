#pragma once
// BLIF interchange for mapped netlists (.gate form) and PLA reading.
//
// The mapped-BLIF dialect written/read here is the one ABC and SIS use for
// library netlists:
//   .model <name> / .inputs / .outputs / .gate <cell> <pin>=<net> ... O=<net>
// plus constant-0/1 via the library's constant cells. `.names` bodies are
// accepted only for constants (empty cover or a single "1" line), since a
// mapped netlist must consist of library gates.

#include <string>
#include <string_view>

#include "flow/flow.hpp"
#include "netlist/netlist.hpp"

namespace powder {

/// Serializes a mapped netlist to BLIF text.
std::string write_blif(const Netlist& netlist);

/// Parses mapped BLIF against `library` in one scan over `text`. Throws a
/// typed input Error (a CheckError) on malformed input or unknown cells,
/// naming the source line.
Netlist read_blif(std::string_view text, const CellLibrary& library);

/// Parses an espresso-style PLA (.i/.o/.p/.ilb/.ob, 'fd' type semantics).
SopNetwork read_pla(std::string_view text, std::string name = "pla");

/// Serializes a SopNetwork to PLA text.
std::string write_pla(const SopNetwork& sop);

}  // namespace powder
