// Committed-golden comparison shared by the byte-identity suites.
//
// A golden is a file under tests/golden (VDC_GOLDEN_DIR) holding the exact
// bytes a deterministic scenario must reproduce. Regenerating is only
// legitimate when a change *intentionally* alters default behavior:
//   VDC_REGEN_GOLDEN=1 ./build/tests/<suite>
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace vdc {

/// Compares `produced` against the committed golden byte for byte; under
/// VDC_REGEN_GOLDEN=1 rewrites the golden instead (and skips, so a regen
/// run is visibly not a verification run).
inline void check_golden(const std::string& name, const std::string& produced) {
  const std::string path = std::string(VDC_GOLDEN_DIR) + "/" + name;
  if (std::getenv("VDC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << produced;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with VDC_REGEN_GOLDEN=1 to create it)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == produced) return;
  // Pinpoint the first differing line instead of dumping both files.
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = std::min(expected.size(), produced.size());
  while (i < n && expected[i] == produced[i]) {
    if (expected[i] == '\n') ++line;
    ++i;
  }
  const auto line_at = [](const std::string& s, std::size_t pos) {
    const std::size_t begin = s.rfind('\n', pos == 0 ? 0 : pos - 1) + 1;
    std::size_t end = s.find('\n', pos);
    if (end == std::string::npos) end = s.size();
    return s.substr(begin, end - begin);
  };
  FAIL() << name << " diverges from its golden at line " << line << ":\n  golden:   "
         << (i < expected.size() ? line_at(expected, i) : "<eof>") << "\n  produced: "
         << (i < produced.size() ? line_at(produced, i) : "<eof>")
         << "\nByte-identity with the committed golden is a hard requirement; "
            "regenerate only if this change in default behavior is intentional.";
}

}  // namespace vdc
