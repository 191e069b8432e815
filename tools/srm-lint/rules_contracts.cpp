// Numerical/style contract rules (see lint.hpp for the rule table).
#include <optional>
#include <string_view>
#include <unordered_set>

#include "passes.hpp"

namespace srm::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule: banned-random
// ---------------------------------------------------------------------------

void check_banned_random(const FileText& f, std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kRand48 = {
      "drand48", "srand48", "lrand48", "mrand48",
      "erand48", "jrand48", "nrand48", "seed48"};
  for_each_identifier(f.stripped, [&](std::string_view name, std::size_t i) {
    if (kRand48.contains(name)) {
      report(out, f, i, "banned-random",
             std::string(name) +
                 " is not reproducible per chain; use srm::random");
      return;
    }
    if (name == "rand" || name == "srand") {
      // Flag only calls (`rand(`), so variables that merely contain the
      // substring are untouched (for_each_identifier already guarantees
      // exact-token matches).
      const std::size_t after = skip_ws(f.stripped, i + name.size());
      if (after < f.stripped.size() && f.stripped[after] == '(') {
        report(out, f, i, "banned-random",
               "std::" + std::string(name) +
                   " shares global state; use srm::random generators");
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Rule: log-domain
// ---------------------------------------------------------------------------

void check_log_domain(const FileText& f, std::vector<Finding>& out) {
  for_each_identifier(f.stripped, [&](std::string_view name, std::size_t i) {
    if (name == "tgamma") {
      report(out, f, i, "log-domain",
             "tgamma overflows beyond ~171!; use lgamma and stay in logs");
      return;
    }
    if (name != "exp") return;
    std::size_t j = skip_ws(f.stripped, i + name.size());
    if (j >= f.stripped.size() || f.stripped[j] != '(') return;
    j = skip_ws(f.stripped, j + 1);
    // Accept an optional std:: / math:: qualifier on the inner call.
    while (ident_start(j < f.stripped.size() ? f.stripped[j] : '\0')) {
      std::size_t k = j;
      while (k < f.stripped.size() && ident_char(f.stripped[k])) ++k;
      const std::string_view inner =
          std::string_view(f.stripped).substr(j, k - j);
      if (inner == "lgamma") {
        report(out, f, i, "log-domain",
               "exp(lgamma(...)) overflows; combine in the log domain "
               "first");
        return;
      }
      if (k + 1 < f.stripped.size() && f.stripped[k] == ':' &&
          f.stripped[k + 1] == ':') {
        j = k + 2;
        continue;
      }
      return;
    }
  });
}

// ---------------------------------------------------------------------------
// Rule: raw-thread
// ---------------------------------------------------------------------------

void check_raw_thread(const FileText& f, std::vector<Finding>& out) {
  for_each_identifier(f.stripped, [&](std::string_view name, std::size_t i) {
    if (name != "thread" && name != "jthread" && name != "async") return;
    // Only the std-qualified entities: `std::thread`, `std::jthread`,
    // `std::async` (so members like `pool.async(...)` or a local named
    // `thread` stay legal).
    if (i < 2 || f.stripped[i - 1] != ':' || f.stripped[i - 2] != ':') return;
    if (ident_before(f.stripped, i - 2) != "std") return;
    report(out, f, i, "raw-thread",
           "std::" + std::string(name) +
               " outside src/runtime/; use the runtime pool "
               "(runtime::TaskGroup / parallel_for) so execution stays "
               "deterministic and bounded");
  });
}

// ---------------------------------------------------------------------------
// Rule: raw-intrinsics
// ---------------------------------------------------------------------------

void check_raw_intrinsics(const FileText& f, std::vector<Finding>& out) {
  // ISA headers are dotted names inside an #include, so identifier walking
  // cannot see them — scan the stripped text for the exact header spellings.
  // (strip_comments_and_strings leaves <...> include targets intact; only
  // the "..." quoted form is blanked, and ISA headers are system headers.)
  static constexpr std::string_view kBannedHeaders[] = {
      "<immintrin.h>", "<emmintrin.h>", "<arm_neon.h>"};
  const std::string& s = f.stripped;
  for (const std::string_view header : kBannedHeaders) {
    std::size_t pos = 0;
    while ((pos = s.find(header, pos)) != std::string::npos) {
      report(out, f, pos, "raw-intrinsics",
             "include of " + std::string(header) +
                 " outside support/simd/; ISA-specific code goes through "
                 "the lane layer (support/simd/lanes.hpp) so every other "
                 "TU stays portable and baseline-compiled");
      pos += header.size();
    }
  }
  // Masked-select / movemask intrinsic spellings. These are callable without
  // their ISA header in some toolchain modes (clang builtin fallbacks), so
  // the header scan alone does not pin them; masked selects have an exact,
  // bit-stable wrapper in support/simd/lanes.hpp (vselect) that every
  // caller must route through.
  static constexpr std::string_view kBannedMaskIntrinsics[] = {
      "_mm_blendv_pd",    "_mm256_blendv_pd",   "_mm512_mask_blend_pd",
      "_mm_movemask_pd",  "_mm256_movemask_pd", "_mm_andnot_pd",
      "_mm256_andnot_pd", "vbslq_f64"};
  for_each_identifier(s, [&](std::string_view name, std::size_t i) {
    if (name.rfind("__builtin_ia32_", 0) == 0) {
      report(out, f, i, "raw-intrinsics",
             std::string(name) +
                 " outside support/simd/; raw ISA builtins bypass the lane "
                 "layer and break the portable scalar fallback");
      return;
    }
    for (const std::string_view banned : kBannedMaskIntrinsics) {
      if (name != banned) continue;
      report(out, f, i, "raw-intrinsics",
             std::string(name) +
                 " outside support/simd/; masked selects go through the "
                 "lane layer (support/simd/lanes.hpp: vselect) so lane "
                 "masks stay bit-identical on every backend");
      return;
    }
  });
}

// ---------------------------------------------------------------------------
// Rule: hot-std-function
// ---------------------------------------------------------------------------

void check_hot_std_function(const FileText& f, std::vector<Finding>& out) {
  for_each_identifier(f.stripped, [&](std::string_view name, std::size_t i) {
    if (name != "function") return;
    // Only the std-qualified template: `std::function`. Members or locals
    // that happen to be named `function` stay legal.
    if (i < 2 || f.stripped[i - 1] != ':' || f.stripped[i - 2] != ':') return;
    if (ident_before(f.stripped, i - 2) != "std") return;
    report(out, f, i, "hot-std-function",
           "std::function in sampler hot-path code; it type-erases with an "
           "owned (possibly heap-allocated) copy per call site — take a "
           "support::function_ref instead");
  });
}

// ---------------------------------------------------------------------------
// Rule: nested-vector-matrix
// ---------------------------------------------------------------------------

void check_nested_vector_matrix(const FileText& f,
                                std::vector<Finding>& out) {
  const std::string& s = f.stripped;
  for_each_identifier(s, [&](std::string_view name, std::size_t i) {
    if (name != "vector") return;
    // Only the std-qualified outer template (a user type named `vector`
    // stays legal, mirroring the other std:: rules).
    if (i < 2 || s[i - 1] != ':' || s[i - 2] != ':') return;
    if (ident_before(s, i - 2) != "std") return;
    std::size_t j = skip_ws(s, i + name.size());
    if (j >= s.size() || s[j] != '<') return;
    j = skip_ws(s, j + 1);
    // Optional std:: qualifier on the element type.
    std::size_t k = j;
    while (k < s.size() && ident_char(s[k])) ++k;
    if (std::string_view(s).substr(j, k - j) == "std") {
      k = skip_ws(s, k);
      if (k + 1 >= s.size() || s[k] != ':' || s[k + 1] != ':') return;
      j = skip_ws(s, k + 2);
      k = j;
      while (k < s.size() && ident_char(s[k])) ++k;
    }
    if (std::string_view(s).substr(j, k - j) != "vector") return;
    report(out, f, i, "nested-vector-matrix",
           "vector-of-vector matrix: every inner row is its own heap "
           "allocation and pointer chase — use the flat row-major "
           "support::Matrix");
  });
}

// ---------------------------------------------------------------------------
// Rule: adhoc-serialization
// ---------------------------------------------------------------------------

void check_adhoc_serialization(const FileText& f, std::vector<Finding>& out) {
  const std::string& s = f.stripped;
  for_each_identifier(s, [&](std::string_view name, std::size_t i) {
    if (name != "operator") return;
    std::size_t j = skip_ws(s, i + name.size());
    if (j + 1 >= s.size() || s[j] != '<' || s[j + 1] != '<') return;
    const std::size_t paren = skip_ws(s, j + 2);
    if (paren >= s.size() || s[paren] != '(') return;
    const std::size_t close = match_delim(s, paren, '(', ')');
    if (close == std::string::npos) return;
    // Only stream-insertion overloads: an operator<< whose parameter list
    // mentions an ostream. Shift-semantics overloads (ints, bitmasks) are
    // not serialization and stay legal.
    const std::string params = s.substr(paren + 1, close - paren - 2);
    bool streams = false;
    for_each_identifier(params, [&](std::string_view tok, std::size_t) {
      if (tok == "ostream" || tok == "basic_ostream") streams = true;
    });
    if (!streams) return;
    report(out, f, i, "adhoc-serialization",
           "ad-hoc operator<< result emission; results leave the library "
           "as typed artifacts (src/artifact/) or rendered tables "
           "(src/report/), not per-type stream overloads");
  });
}

// ---------------------------------------------------------------------------
// Rule: family-dispatch
// ---------------------------------------------------------------------------
// The model-family registry (core/model_family.hpp) is the one place that
// knows what families exist and how they differ. Outside src/core/, a
// PriorKind / DetectionModelKind *enumerator* token is a switch/if-chain
// in the making — per-family behavior hard-coded where registering a new
// family cannot reach it. Outer layers must read the registry record
// (ids, titles, selection grids, fork capabilities, the make factory)
// instead. Type-name-only uses (declarations, signatures, registry keys)
// stay legal: only `Kind::kEnumerator` access is flagged.

void check_family_dispatch(const FileText& f, std::vector<Finding>& out) {
  const std::string& s = f.stripped;
  for_each_identifier(s, [&](std::string_view name, std::size_t i) {
    if (name != "PriorKind" && name != "DetectionModelKind") return;
    std::size_t j = skip_ws(s, i + name.size());
    if (j + 1 >= s.size() || s[j] != ':' || s[j + 1] != ':') return;
    j = skip_ws(s, j + 2);
    // Enumerators are k-prefixed CamelCase constants; anything else after
    // `::` (nested names, casts) is not a dispatch site.
    if (j + 1 >= s.size() || s[j] != 'k') return;
    const char next = s[j + 1];
    if (next < 'A' || next > 'Z') return;
    report(out, f, i, "family-dispatch",
           std::string(name) +
               " enumerator dispatch outside src/core/; per-family behavior "
               "belongs in the model-family registry "
               "(core/model_family.hpp) — read the registry record instead "
               "so a new family lands without touching this layer");
  });
}

// ---------------------------------------------------------------------------
// Rule: iostream
// ---------------------------------------------------------------------------

void check_iostream(const FileText& f, std::vector<Finding>& out) {
  for_each_identifier(f.stripped, [&](std::string_view name, std::size_t i) {
    if (name != "cout" && name != "cerr") return;
    if (i < 2 || f.stripped[i - 1] != ':' || f.stripped[i - 2] != ':') return;
    report(out, f, i, "iostream",
           "std::" + std::string(name) +
               " in library code; take a std::ostream& or return data");
  });
}

// ---------------------------------------------------------------------------
// Rule: float-compare
// ---------------------------------------------------------------------------

bool is_float_literal(std::string_view tok) {
  if (tok.empty()) return false;
  bool digit = false;
  bool dot_or_exp = false;
  for (std::size_t i = 0; i < tok.size(); ++i) {
    const char c = tok[i];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      digit = true;
    } else if (c == '.') {
      dot_or_exp = true;
    } else if ((c == 'e' || c == 'E') && digit) {
      dot_or_exp = true;
      if (i + 1 < tok.size() && (tok[i + 1] == '+' || tok[i + 1] == '-')) {
        ++i;
      }
    } else if ((c == 'f' || c == 'F' || c == 'l' || c == 'L') &&
               i + 1 == tok.size()) {
      // suffix
    } else {
      return false;
    }
  }
  return digit && dot_or_exp;
}

void check_float_compare(const FileText& f, std::vector<Finding>& out) {
  const std::string& s = f.stripped;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (s[i + 1] != '=' || (s[i] != '=' && s[i] != '!')) continue;
    if (i + 2 < s.size() && s[i + 2] == '=') continue;  // ===, spaceship junk
    if (i > 0 && (s[i - 1] == '=' || s[i - 1] == '<' || s[i - 1] == '>' ||
                  s[i - 1] == '!')) {
      continue;
    }
    // Left operand token (floating literals may end in a digit or suffix).
    std::size_t e = i;
    while (e > 0 && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
      --e;
    }
    std::size_t b = e;
    while (b > 0 && (ident_char(s[b - 1]) || s[b - 1] == '.')) --b;
    const std::string_view left = std::string_view(s).substr(b, e - b);
    // Right operand token.
    std::size_t rb = skip_ws(s, i + 2);
    std::size_t re = rb;
    while (re < s.size() && (ident_char(s[re]) || s[re] == '.' ||
                             ((s[re] == '+' || s[re] == '-') && re > rb &&
                              (s[re - 1] == 'e' || s[re - 1] == 'E')))) {
      ++re;
    }
    const std::string_view right = std::string_view(s).substr(rb, re - rb);
    if (is_float_literal(left) || is_float_literal(right)) {
      report(out, f, i, "float-compare",
             "floating-point ==/!= against a literal; use the helpers in "
             "support/fp.hpp (exactly/is_zero/is_one/approx)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: expects
// ---------------------------------------------------------------------------

bool has_numeric_scalar_param(const std::string& params) {
  static const std::unordered_set<std::string_view> kNumeric = {
      "double",   "float",    "int",      "long",    "short",
      "unsigned", "signed",   "size_t",   "int8_t",  "int16_t",
      "int32_t",  "int64_t",  "uint8_t",  "uint16_t", "uint32_t",
      "uint64_t", "ptrdiff_t"};
  // Blank template-argument spans so std::span<const double> does not count
  // as a scalar double parameter.
  std::string flat = params;
  int angle = 0;
  for (char& c : flat) {
    if (c == '<') ++angle;
    const bool inside = angle > 0;
    if (c == '>') --angle;
    if (inside) c = ' ';
  }
  bool numeric = false;
  for_each_identifier(flat, [&](std::string_view tok, std::size_t) {
    if (kNumeric.contains(tok)) numeric = true;
  });
  return numeric;
}

struct PublicDecl {
  std::string cls;   // enclosing class, empty for free functions
  std::string name;  // function (or constructor) name
  int line = 0;      // header line of the declaration
};

/// Extracts public function declarations with scalar numeric parameters
/// from a header. Inline-defined functions are checked on the spot; the
/// rest are returned for cross-checking against the sibling .cpp.
void scan_header(const FileText& f, std::vector<PublicDecl>& needs_impl,
                 std::vector<Finding>& out) {
  const std::string& s = f.stripped;
  struct Scope {
    bool collect = false;  // namespace or public class section
    bool is_class = false;
    std::string cls;
    bool access_public = false;
  };
  std::vector<Scope> scopes;
  scopes.push_back({true, false, "", false});  // file scope

  std::size_t unit_begin = 0;
  std::size_t i = 0;
  const auto unit = [&](std::size_t end) {
    std::string u = s.substr(unit_begin, end - unit_begin);
    return u;
  };

  const auto handle_decl = [&](const std::string& u, std::size_t begin,
                               std::size_t body_begin, std::size_t body_end) {
    Scope& sc = scopes.back();
    const bool collectable =
        sc.collect && (!sc.is_class || sc.access_public);
    if (!collectable) return;
    if (u.find('(') == std::string::npos) return;
    for (const char* skip :
         {"operator", "= default", "= delete", "using ", "friend ",
          "typedef ", "template", "static_assert", "#"}) {
      if (u.find(skip) != std::string::npos) return;
    }
    const std::size_t paren = u.find('(');
    std::string name = ident_before(u, paren);
    if (name.empty() || u.find('~') != std::string::npos) return;
    const std::size_t close = match_delim(u, paren, '(', ')');
    if (close == std::string::npos) return;
    // Pure virtual (`... ) const = 0`): no body anywhere to carry the
    // check; the contract belongs to the overrides.
    std::string tail;
    for (const char tc : u.substr(close)) {
      if (std::isspace(static_cast<unsigned char>(tc)) == 0) tail += tc;
    }
    if (tail.size() >= 2 && tail.compare(tail.size() - 2, 2, "=0") == 0) {
      return;
    }
    const std::string params = u.substr(paren + 1, close - paren - 2);
    if (!has_numeric_scalar_param(params)) return;
    const int line = line_of(f.starts, begin + paren);
    if (f.suppressed(line, "expects")) return;
    if (body_begin != std::string::npos) {
      const std::string body = s.substr(body_begin, body_end - body_begin);
      if (body.find("SRM_EXPECTS") == std::string::npos) {
        Finding fd{f.rel, line, "expects",
                   "public function `" + name +
                       "` takes numeric parameters but its inline body has "
                       "no SRM_EXPECTS precondition"};
        out.push_back(fd);
      }
      return;
    }
    needs_impl.push_back({scopes.back().cls, name, line});
  };

  while (i < s.size()) {
    const char c = s[i];
    if (c == ';') {
      handle_decl(unit(i), unit_begin, std::string::npos, std::string::npos);
      unit_begin = i + 1;
      ++i;
    } else if (c == '{') {
      const std::string u = unit(i);
      const std::size_t body_end = match_delim(s, i, '{', '}');
      if (body_end == std::string::npos) break;  // unbalanced; bail out
      if (u.find("namespace") != std::string::npos) {
        scopes.push_back({true, false, scopes.back().cls, false});
        unit_begin = i + 1;
        ++i;
      } else if (u.find("class ") != std::string::npos ||
                 u.find("struct ") != std::string::npos) {
        const bool is_struct = u.find("struct ") != std::string::npos;
        // Name: identifier after the class/struct keyword (before any
        // base-clause colon).
        const std::size_t kw = is_struct ? u.find("struct ") + 7
                                         : u.find("class ") + 6;
        std::size_t e = kw;
        while (e < u.size() && ident_char(u[e])) ++e;
        scopes.push_back({true, true, u.substr(kw, e - kw), is_struct});
        unit_begin = i + 1;
        ++i;
      } else if (u.find('(') != std::string::npos) {
        handle_decl(u, unit_begin, i + 1, body_end - 1);
        unit_begin = body_end;
        i = body_end;
      } else {
        // enum, array initializer, lambda-free brace — skip wholesale.
        unit_begin = body_end;
        i = body_end;
      }
    } else if (c == '}') {
      if (scopes.size() > 1) scopes.pop_back();
      unit_begin = i + 1;
      ++i;
    } else if (c == ':' && scopes.back().is_class &&
               (i + 1 >= s.size() || s[i + 1] != ':') &&
               (i == 0 || s[i - 1] != ':')) {
      const std::string u = unit(i);
      const std::string word = ident_before(u, u.size());
      if (word == "public") {
        scopes.back().access_public = true;
        unit_begin = i + 1;
      } else if (word == "private" || word == "protected") {
        scopes.back().access_public = false;
        unit_begin = i + 1;
      }
      ++i;
    } else {
      ++i;
    }
  }
}

/// True if `def_end` (offset of `(`) begins a function *definition* —
/// i.e. after the balanced parameter list the next tokens are an optional
/// `const`/`noexcept` qualifier followed by `{`.
std::size_t definition_body(const std::string& s, std::size_t paren) {
  const std::size_t close = match_delim(s, paren, '(', ')');
  if (close == std::string::npos) return std::string::npos;
  std::size_t j = skip_ws(s, close);
  while (j < s.size() && ident_start(s[j])) {
    std::size_t k = j;
    while (k < s.size() && ident_char(s[k])) ++k;
    const std::string_view tok = std::string_view(s).substr(j, k - j);
    if (tok != "const" && tok != "noexcept" && tok != "override") {
      return std::string::npos;
    }
    j = skip_ws(s, k);
  }
  // Constructor initializer lists: `: member_(...), other_(...) {`.
  if (j < s.size() && s[j] == ':' &&
      (j + 1 >= s.size() || s[j + 1] != ':')) {
    while (j < s.size() && s[j] != '{' && s[j] != ';') {
      if (s[j] == '(') {
        j = match_delim(s, j, '(', ')');
        if (j == std::string::npos) return std::string::npos;
      } else {
        ++j;
      }
    }
  }
  if (j < s.size() && s[j] == '{') return j;
  return std::string::npos;
}

/// Checks the declarations collected from a header against its sibling
/// implementation file (`bayes_srm.cpp` for `bayes_srm.hpp`; null when the
/// header has none): every matching definition must contain SRM_EXPECTS.
void check_impls(const FileText& header, const FileText* impl,
                 const std::vector<PublicDecl>& decls,
                 std::vector<Finding>& out) {
  for (const PublicDecl& d : decls) {
    bool found_def = false;
    std::vector<std::pair<int, std::string>> missing;  // line in impl
    if (impl != nullptr) {
      const std::string& s = impl->stripped;
      std::size_t pos = 0;
      while ((pos = s.find(d.name, pos)) != std::string::npos) {
        const std::size_t at = pos;
        pos += d.name.size();
        if (at > 0 && ident_char(s[at - 1])) continue;
        if (pos < s.size() && ident_char(s[pos])) continue;
        // Member functions must be qualified Class::name; free functions
        // must NOT be preceded by `::` or `.` (those are call sites).
        if (!d.cls.empty()) {
          if (at < 2 || s[at - 1] != ':' || s[at - 2] != ':') continue;
          const std::string qual = ident_before(s, at - 2);
          if (qual != d.cls) continue;
        } else {
          if (at >= 2 && s[at - 1] == ':' && s[at - 2] == ':') continue;
          if (at >= 1 && s[at - 1] == '.') continue;
        }
        const std::size_t paren = skip_ws(s, pos);
        if (paren >= s.size() || s[paren] != '(') continue;
        const std::size_t body = definition_body(s, paren);
        if (body == std::string::npos) continue;
        const std::size_t body_end = match_delim(s, body, '{', '}');
        if (body_end == std::string::npos) continue;
        found_def = true;
        const int def_line = line_of(impl->starts, at);
        if (s.substr(body, body_end - body).find("SRM_EXPECTS") ==
                std::string::npos &&
            !impl->suppressed(def_line, "expects")) {
          missing.emplace_back(def_line, impl->rel);
        }
        pos = body_end;
      }
    }
    if (!found_def) {
      out.push_back({header.rel, d.line, "expects",
                     "public function `" + d.name +
                         "` takes numeric parameters but no implementation "
                         "was found in the sibling <stem>.cpp to carry its "
                         "SRM_EXPECTS precondition"});
      continue;
    }
    for (const auto& [line, file] : missing) {
      out.push_back({file, line, "expects",
                     "definition of public `" +
                         (d.cls.empty() ? d.name : d.cls + "::" + d.name) +
                         "` has no SRM_EXPECTS precondition (declared at " +
                         header.rel + ":" + std::to_string(d.line) + ")"});
    }
  }
}

}  // namespace

void run_contract_rules(const FileSet& files, std::vector<Finding>& out) {
  for (const FileText& f : files.files()) {
    // serve/ is a frontend like cli/: its binary and stream transport own
    // stdout/stderr, so the iostream ban does not apply there.
    const bool is_frontend_or_report =
        f.in_dir("cli/") || f.in_dir("report/") || f.in_dir("serve/");
    const bool is_core_or_stats =
        f.in_dir("core/") || f.in_dir("stats/");

    check_banned_random(f, out);
    if (is_core_or_stats) check_log_domain(f, out);
    if (!f.in_dir("core/")) check_family_dispatch(f, out);
    if (!is_frontend_or_report) check_iostream(f, out);
    if (!f.in_dir("report/") && !f.in_dir("artifact/")) {
      check_adhoc_serialization(f, out);
    }
    if (f.rel != "support/fp.hpp") check_float_compare(f, out);
    if (!f.in_dir("runtime/")) check_raw_thread(f, out);
    if (!f.in_dir("support/simd/")) check_raw_intrinsics(f, out);
    if (f.in_dir("mcmc/") || f.in_dir("core/")) {
      check_hot_std_function(f, out);
    }
    if (f.in_dir("core/") || f.in_dir("report/")) {
      check_nested_vector_matrix(f, out);
    }

    if (is_core_or_stats && f.rel.size() > 4 &&
        f.rel.compare(f.rel.size() - 4, 4, ".hpp") == 0) {
      std::vector<PublicDecl> needs_impl;
      scan_header(f, needs_impl, out);
      if (!needs_impl.empty()) {
        // The sibling implementation comes from the already-loaded file
        // set — never a second disk read.
        const std::string stem = f.rel.substr(0, f.rel.size() - 4);
        check_impls(f, files.find(stem + ".cpp"), needs_impl, out);
      }
    }
  }
}

}  // namespace srm::lint
