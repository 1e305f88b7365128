#include "support/flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"

namespace olb {
namespace {

/// An unknown flag or a stray argument is a usage error: name it, print the
/// usage and exit with status 2.
[[noreturn]] void reject_argument(const Flags& flags, const char* program,
                                  const char* what, const std::string& arg) {
  std::fprintf(stderr, "%s: %s\n", what, arg.c_str());
  flags.print_usage(program);
  std::exit(2);
}

/// A flag value that does not parse is a usage error, like an unknown flag:
/// name the flag and the value and exit with status 2.
[[noreturn]] void reject_value(std::string_view name, const std::string& value,
                               const char* expected) {
  std::fprintf(stderr, "FATAL: --%.*s: '%s' is not %s\n",
               static_cast<int>(name.size()), name.data(), value.c_str(),
               expected);
  std::exit(2);
}

std::int64_t parse_int(std::string_view name, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    reject_value(name, text, "a valid integer");
  }
  return v;
}

double parse_double(std::string_view name, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    reject_value(name, text, "a finite number");
  }
  return v;
}

/// Comma-separated items; an empty value is an empty list.
std::vector<std::string> list_items(const std::string& value) {
  std::vector<std::string> out;
  if (value.empty()) return out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(value.substr(start));
      return out;
    }
    out.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

Flags& Flags::define(std::string name, std::string default_value, std::string help) {
  OLB_CHECK_MSG(find(name) == nullptr, "duplicate flag definition");
  entries_.push_back(Entry{std::move(name), default_value, std::move(default_value),
                           std::move(help)});
  return *this;
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      reject_argument(*this, argv[0], "unexpected argument", argv[i]);
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    Entry* entry = find(name);
    if (entry == nullptr) {
      reject_argument(*this, argv[0], "unknown flag", "--" + name);
    }
    entry->value = std::move(value);
  }
  return true;
}

std::string Flags::get(std::string_view name) const {
  const Entry* entry = find(name);
  OLB_CHECK_MSG(entry != nullptr, "flag not defined");
  return entry->value;
}

std::int64_t Flags::get_int(std::string_view name) const {
  return parse_int(name, get(name));
}

double Flags::get_double(std::string_view name) const {
  return parse_double(name, get(name));
}

bool Flags::get_bool(std::string_view name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  reject_value(name, v, "a boolean (true/false, 1/0, yes/no, on/off)");
}

std::vector<std::int64_t> Flags::get_int_list(std::string_view name) const {
  std::vector<std::int64_t> out;
  for (const std::string& item : list_items(get(name))) {
    out.push_back(parse_int(name, item));
  }
  return out;
}

std::vector<double> Flags::get_double_list(std::string_view name) const {
  std::vector<double> out;
  for (const std::string& item : list_items(get(name))) {
    out.push_back(parse_double(name, item));
  }
  return out;
}

void Flags::print_usage(std::string_view program) const {
  std::fprintf(stderr, "usage: %.*s [flags]\n", static_cast<int>(program.size()),
               program.data());
  for (const Entry& e : entries_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", e.name.c_str(),
                 e.help.c_str(), e.default_value.c_str());
  }
}

Flags& define_trace_flags(Flags& flags) {
  return flags
      .define("trace", "",
              "dump a run timeline here (.ndjson -> NDJSON, else Perfetto)")
      .define("trace-limit", "2000000",
              "ring-buffer capacity: keep the last N trace events");
}

const Flags::Entry* Flags::find(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Flags::Entry* Flags::find(std::string_view name) {
  return const_cast<Entry*>(static_cast<const Flags*>(this)->find(name));
}

}  // namespace olb
