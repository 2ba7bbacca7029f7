#include "dist/merge.h"

#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "campaign/report.h"
#include "fuzz/elite_archive.h"
#include "util/fs.h"
#include "util/logging.h"

namespace ccfuzz::dist {
namespace {

namespace fs = std::filesystem;

/// One shard's parsed summary pair: cells addressable by name, with the raw
/// text preserved so reassembly is byte-exact.
struct ShardSummary {
  bool interrupted = false;
  /// Quarantined-genome count from the shard's summary header (0 for
  /// summaries written before the field existed).
  std::size_t quarantined = 0;
  /// Cell name → its summary.csv data row (newline included).
  std::map<std::string, std::string, std::less<>> csv_rows;
  /// Cell name (escaped form) → its summary.json cell block, normalized to
  /// end in "    }\n" (no trailing comma).
  std::map<std::string, std::string, std::less<>> json_blocks;
};

/// Splits a shard's summary.csv into rows keyed by their first field. The
/// first field of each row is matched against csv_field(name) later, so the
/// raw row text is kept verbatim.
Error parse_summary_csv(const std::string& body, std::uint32_t shard,
                        ShardSummary& out) {
  std::istringstream is(body);
  std::string line;
  if (!std::getline(is, line)) {
    return Error::truncated("shard " + std::to_string(shard) +
                            ": empty summary.csv");
  }
  if (line + "\n" != campaign::summary_csv_header()) {
    return Error::parse("shard " + std::to_string(shard) +
                        ": summary.csv header mismatch: " + line);
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    // First field: up to the first comma, or the full quoted field.
    std::string first;
    if (!line.empty() && line[0] == '"') {
      std::size_t i = 1;
      for (; i < line.size(); ++i) {
        if (line[i] != '"') continue;
        if (i + 1 < line.size() && line[i + 1] == '"') {
          ++i;  // escaped quote
          continue;
        }
        break;
      }
      if (i >= line.size()) {
        return Error::parse("shard " + std::to_string(shard) +
                            ": unterminated quoted cell in summary.csv: " +
                            line);
      }
      first = line.substr(0, i + 1);
    } else {
      first = line.substr(0, line.find(','));
    }
    out.csv_rows[first] = line + "\n";
  }
  return Error::success();
}

/// Splits a shard's summary.json into per-cell blocks. The format is our own
/// writer's (campaign::to_json): a 2-space-indented header with the
/// "interrupted" flag, then one 4-space-indented object per cell. Anything
/// that deviates is a typed parse error — summaries are machine-written, so
/// deviation means corruption, not style.
Error parse_summary_json(const std::string& body, std::uint32_t shard,
                         ShardSummary& out) {
  const std::string where = "shard " + std::to_string(shard);
  std::istringstream is(body);
  std::string line;
  if (!std::getline(is, line) || line != "{") {
    return Error::parse(where + ": summary.json missing '{'");
  }
  if (!std::getline(is, line) ||
      line.rfind("  \"interrupted\": ", 0) != 0) {
    return Error::parse(where + ": summary.json missing interrupted flag");
  }
  out.interrupted = line.find("true") != std::string::npos;
  if (!std::getline(is, line)) {
    return Error::parse(where + ": summary.json missing cells array");
  }
  // Optional (absent in pre-triage summaries): the campaign-wide
  // quarantined-genome count, summed across shards at reassembly.
  constexpr std::string_view kQuarantined = "  \"quarantined\": ";
  if (line.rfind(kQuarantined, 0) == 0) {
    out.quarantined = static_cast<std::size_t>(
        std::strtoull(line.c_str() + kQuarantined.size(), nullptr, 10));
    if (!std::getline(is, line)) {
      return Error::parse(where + ": summary.json missing cells array");
    }
  }
  if (line != "  \"cells\": [") {
    return Error::parse(where + ": summary.json missing cells array");
  }
  std::string block, name;
  bool in_block = false;
  while (std::getline(is, line)) {
    if (!in_block) {
      if (line == "    {") {
        in_block = true;
        block = line + "\n";
        name.clear();
        continue;
      }
      if (line == "  ]") break;  // end of cells
      return Error::parse(where + ": unexpected summary.json line: " + line);
    }
    if (line == "    }" || line == "    },") {
      block += "    }\n";  // normalized: comma re-added at reassembly
      if (name.empty()) {
        return Error::corrupt(where + ": summary.json cell block without a "
                              "name");
      }
      if (!out.json_blocks.emplace(name, std::move(block)).second) {
        return Error::corrupt(where + ": summary.json duplicate cell: " + name);
      }
      block.clear();
      in_block = false;
      continue;
    }
    block += line + "\n";
    constexpr std::string_view kName = "      \"name\": \"";
    if (name.empty() && line.rfind(kName, 0) == 0) {
      // Keep the *escaped* name text; lookups compare escaped forms.
      const std::size_t end = line.rfind("\",");
      if (end == std::string::npos || end < kName.size()) {
        return Error::parse(where + ": bad name line: " + line);
      }
      name = line.substr(kName.size(), end - kName.size());
    }
  }
  if (in_block) {
    return Error::truncated(where + ": summary.json ends mid-cell");
  }
  return Error::success();
}

Error load_shard_summary(const std::string& root, std::uint32_t shard,
                         ShardSummary& out) {
  const fs::path dir(shard_dir(root, shard));
  Result<std::string> csv = read_file((dir / "summary.csv").string());
  if (!csv) return csv.error();
  if (Error e = parse_summary_csv(*csv, shard, out)) return e;
  Result<std::string> json = read_file((dir / "summary.json").string());
  if (!json) return json.error();
  return parse_summary_json(*json, shard, out);
}

}  // namespace

std::string shard_dir(const std::string& root, std::uint32_t shard) {
  return root + "/shards/" + std::to_string(shard);
}

Result<MergeStats> merge_reports(const std::string& shards_root,
                                 const ShardPlan& plan,
                                 const std::string& out_dir) {
  MergeStats stats;

  // Load every shard that owns at least one cell.
  std::map<std::uint32_t, ShardSummary> shards;
  for (const auto& entry : plan.entries) {
    if (shards.count(entry.shard)) continue;
    ShardSummary summary;
    if (Error e = load_shard_summary(shards_root, entry.shard, summary)) {
      return e;
    }
    stats.interrupted = stats.interrupted || summary.interrupted;
    stats.genomes_quarantined += summary.quarantined;
    shards.emplace(entry.shard, std::move(summary));
  }
  stats.shards_read = shards.size();

  // Reassemble the summaries in global cell order. Rows and blocks are the
  // shard writers' bytes, so the merged files match the single-process run's.
  // A planned cell missing from its shard is normally a hard mismatch; a
  // quarantine marker turns it into a skip (the merged report simply omits
  // the cell the supervisor had to isolate).
  std::string csv = campaign::summary_csv_header();
  std::vector<std::string> blocks;
  std::vector<const ShardPlan::Entry*> merged;
  for (const ShardPlan::Entry& entry : plan.entries) {
    const ShardSummary& shard = shards.at(entry.shard);
    const auto row = shard.csv_rows.find(campaign::csv_field(entry.cell));
    const auto block = shard.json_blocks.find(campaign::json_escape(entry.cell));
    if (row == shard.csv_rows.end() || block == shard.json_blocks.end()) {
      const fs::path marker = fs::path(shards_root) / "quarantine" / "cells" /
                              (campaign::sanitize_cell_name(entry.cell) +
                               ".cell");
      if (fs::exists(marker)) {
        CCFUZZ_LOG_WARN("merge: cell '%s' is quarantined (%s); omitting it "
                        "from the merged report",
                        entry.cell.c_str(), marker.string().c_str());
        ++stats.cells_quarantined;
        continue;
      }
      return Error::mismatch("cell '" + entry.cell + "' missing from shard " +
                             std::to_string(entry.shard) + "'s summary");
    }
    csv += row->second;
    blocks.push_back(block->second);
    merged.push_back(&entry);
  }
  std::string json = "{\n  \"interrupted\": ";
  json += stats.interrupted ? "true" : "false";
  json += ",\n  \"quarantined\": " + std::to_string(stats.genomes_quarantined);
  json += ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    json += blocks[i];
    if (i + 1 < blocks.size()) {
      json.back() = ',';  // "    }\n" → "    },\n"
      json += '\n';
    }
  }
  json += "  ]\n}\n";
  stats.cells = merged.size();

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    return Error::io("cannot create " + out_dir + ": " + ec.message());
  }
  if (Error e = write_file_atomic(out_dir + "/summary.csv", csv)) return e;
  if (Error e = write_file_atomic(out_dir + "/summary.json", json)) return e;

  // Per-cell artifacts are shard-local and final: copy the directories over
  // (quarantined cells have none).
  fuzz::EliteArchive merged_archive;
  for (const ShardPlan::Entry* ep : merged) {
    const ShardPlan::Entry& entry = *ep;
    const std::string cell_dir = campaign::sanitize_cell_name(entry.cell);
    const fs::path src =
        fs::path(shard_dir(shards_root, entry.shard)) / cell_dir;
    const fs::path dst = fs::path(out_dir) / cell_dir;
    if (!fs::exists(src)) {
      return Error::corrupt("shard " + std::to_string(entry.shard) +
                            " has no report directory for cell '" +
                            entry.cell + "'");
    }
    const bool same_dir = fs::exists(dst) && fs::equivalent(src, dst, ec);
    ec.clear();
    if (!same_dir) {
      fs::remove_all(dst, ec);
      ec.clear();
      fs::copy(src, dst, fs::copy_options::recursive, ec);
      if (ec) {
        return Error::io("cannot copy " + src.string() + " to " +
                         dst.string() + ": " + ec.message());
      }
    }
    // Union the cell's behavior archive into the campaign-wide map. A
    // corrupt archive is a crash artifact: warn and keep merging.
    const fs::path archive = src / "archive.txt";
    if (fs::exists(archive)) {
      Result<fuzz::EliteArchive> a =
          fuzz::EliteArchive::try_load_file(archive.string());
      if (a) {
        merged_archive.merge_from(*a);
        ++stats.archives_merged;
      } else {
        CCFUZZ_LOG_WARN("merge: archive %s unusable (%s: %s); skipping",
                        archive.string().c_str(),
                        to_string(a.error().code), a.error().message.c_str());
      }
    }
  }
  if (stats.archives_merged > 0) {
    merged_archive.save_file(out_dir + "/archive_merged.txt");
    stats.archive_cells = merged_archive.filled();
    stats.coverage_bits = merged_archive.union_bits();
  }
  return stats;
}

}  // namespace ccfuzz::dist
