// Tiny command-line flag parser for the bench harnesses and examples.
//
// Supports `--name=value` and `--name value` forms plus `--help`. Each
// binary registers its flags up front so `--help` prints a usage table.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace olb {

class Flags {
 public:
  /// Registers a flag with a default value and help text. Returns *this for
  /// chaining. Must be called before parse().
  Flags& define(std::string name, std::string default_value, std::string help);

  /// Parses argv. On `--help` prints usage and returns false (caller should
  /// exit 0). Unknown flags are a hard error (prints usage, returns false).
  bool parse(int argc, char** argv);

  /// True when a flag of this name was define()d (regardless of whether the
  /// command line set it). Lets shared parsers skip flags a binary opted
  /// out of.
  bool has(std::string_view name) const { return find(name) != nullptr; }

  /// Typed readers. A value that does not parse completely — trailing
  /// garbage, an empty or out-of-range number, a boolean other than
  /// true/false, 1/0, yes/no or on/off — prints the flag and the value and
  /// exits with status 2.
  std::string get(std::string_view name) const;
  std::int64_t get_int(std::string_view name) const;
  double get_double(std::string_view name) const;
  bool get_bool(std::string_view name) const;

  /// Comma-separated lists, e.g. "100,200,500" or "0,0.05,0.1". An empty
  /// value is an empty list; every item must parse as above.
  std::vector<std::int64_t> get_int_list(std::string_view name) const;
  std::vector<double> get_double_list(std::string_view name) const;

  void print_usage(std::string_view program) const;

 private:
  struct Entry {
    std::string name;
    std::string value;
    std::string default_value;
    std::string help;
  };

  const Entry* find(std::string_view name) const;
  Entry* find(std::string_view name);

  std::vector<Entry> entries_;
};

/// Registers the shared tracing flags (`--trace=<path>` and
/// `--trace-limit=<events>`) used by every bench and example that can dump
/// a run timeline. An empty `--trace` path (the default) disables tracing.
/// Paths ending in `.ndjson` select the NDJSON exporter; anything else gets
/// Chrome/Perfetto trace JSON.
Flags& define_trace_flags(Flags& flags);

}  // namespace olb
