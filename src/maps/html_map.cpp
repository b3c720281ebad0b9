#include "maps/html_map.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace mm::maps {

namespace {

std::string escape_html(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

struct Bounds {
  double min_x = 1e18, min_y = 1e18, max_x = -1e18, max_y = -1e18;
  void grow(geo::Vec2 p, double pad = 0.0) {
    min_x = std::min(min_x, p.x - pad);
    min_y = std::min(min_y, p.y - pad);
    max_x = std::max(max_x, p.x + pad);
    max_y = std::max(max_y, p.y + pad);
  }
  [[nodiscard]] bool valid() const { return max_x >= min_x && max_y >= min_y; }
};

}  // namespace

MarauderMap::MarauderMap(std::string title, const geo::EnuFrame& frame)
    : title_(std::move(title)), frame_(frame) {}

void MarauderMap::add_ap(geo::Vec2 position, const std::string& label,
                         std::optional<double> radius_m) {
  aps_.push_back({position, label, radius_m});
}

void MarauderMap::add_true_position(geo::Vec2 position, const std::string& label) {
  truths_.push_back({position, label, std::nullopt});
}

void MarauderMap::add_estimate(geo::Vec2 position, const std::string& label) {
  estimates_.push_back({position, label, std::nullopt});
}

void MarauderMap::add_path(std::vector<geo::Vec2> points, const std::string& label) {
  paths_.push_back({std::move(points), label});
}

void MarauderMap::add_sniffer(geo::Vec2 position, double coverage_radius_m) {
  sniffer_ = Marker{position, "sniffer", coverage_radius_m};
}

std::string MarauderMap::to_html() const {
  Bounds bounds;
  for (const Marker& m : aps_) bounds.grow(m.position, m.radius_m.value_or(0.0));
  for (const Marker& m : truths_) bounds.grow(m.position);
  for (const Marker& m : estimates_) bounds.grow(m.position);
  for (const Path& p : paths_) {
    for (const geo::Vec2& v : p.points) bounds.grow(v);
  }
  if (sniffer_) bounds.grow(sniffer_->position, 20.0);
  if (!bounds.valid()) bounds = Bounds{-100.0, -100.0, 100.0, 100.0};

  const double margin = 40.0;
  bounds.grow({bounds.min_x, bounds.min_y}, margin);
  bounds.grow({bounds.max_x, bounds.max_y}, margin);
  const double world_w = bounds.max_x - bounds.min_x;
  const double world_h = bounds.max_y - bounds.min_y;
  const double view_w = 1000.0;
  const double view_h = view_w * world_h / world_w;
  const double scale = view_w / world_w;

  auto sx = [&](double x) { return (x - bounds.min_x) * scale; };
  auto sy = [&](double y) { return view_h - (y - bounds.min_y) * scale; };  // north up

  std::ostringstream svg;
  svg.setf(std::ios::fixed);
  svg.precision(1);

  auto tooltip = [&](const Marker& m) {
    const geo::Geodetic g = frame_.to_geodetic(m.position);
    std::ostringstream tip;
    tip.setf(std::ios::fixed);
    tip.precision(6);
    tip << escape_html(m.label) << " (" << g.lat_deg << ", " << g.lon_deg << ")";
    return tip.str();
  };

  for (const Marker& ap : aps_) {
    if (ap.radius_m) {
      svg << "<circle class='coverage' cx='" << sx(ap.position.x) << "' cy='"
          << sy(ap.position.y) << "' r='" << *ap.radius_m * scale << "'/>\n";
    }
  }
  if (sniffer_ && sniffer_->radius_m) {
    svg << "<circle class='sniffer-range' cx='" << sx(sniffer_->position.x) << "' cy='"
        << sy(sniffer_->position.y) << "' r='" << *sniffer_->radius_m * scale << "'/>\n";
  }
  for (const Path& path : paths_) {
    svg << "<polyline class='path' points='";
    for (const geo::Vec2& p : path.points) svg << sx(p.x) << "," << sy(p.y) << " ";
    svg << "'><title>" << escape_html(path.label) << "</title></polyline>\n";
  }
  for (const Marker& ap : aps_) {
    svg << "<circle class='ap' cx='" << sx(ap.position.x) << "' cy='" << sy(ap.position.y)
        << "' r='4'><title>" << tooltip(ap) << "</title></circle>\n";
  }
  for (const Marker& m : truths_) {
    svg << "<circle class='truth' cx='" << sx(m.position.x) << "' cy='" << sy(m.position.y)
        << "' r='6'><title>" << tooltip(m) << "</title></circle>\n";
  }
  for (const Marker& m : estimates_) {
    svg << "<circle class='estimate' cx='" << sx(m.position.x) << "' cy='"
        << sy(m.position.y) << "' r='6'><title>" << tooltip(m) << "</title></circle>\n";
  }
  if (sniffer_) {
    svg << "<rect class='sniffer' x='" << sx(sniffer_->position.x) - 6 << "' y='"
        << sy(sniffer_->position.y) - 6 << "' width='12' height='12'><title>sniffer"
        << "</title></rect>\n";
  }

  std::ostringstream html;
  html << "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>\n<title>"
       << escape_html(title_) << "</title>\n<style>\n"
       << "body{font-family:sans-serif;background:#10141a;color:#dde;}\n"
       << "svg{background:#1b2530;border:1px solid #444;}\n"
       << ".ap{fill:#f5c542;}\n"
       << ".coverage{fill:#f5c542;fill-opacity:0.04;stroke:#f5c542;stroke-opacity:0.25;}\n"
       << ".truth{fill:#e74c3c;}\n"              /* red: real location */
       << ".estimate{fill:#3498db;}\n"           /* blue: estimated */
       << ".path{fill:none;stroke:#e74c3c;stroke-opacity:0.5;stroke-width:2;}\n"
       << ".sniffer{fill:#2ecc71;}\n"
       << ".sniffer-range{fill:none;stroke:#2ecc71;stroke-dasharray:8 6;"
       << "stroke-opacity:0.5;}\n"
       << ".legend span{margin-right:18px;}\n"
       << "</style></head><body>\n<h2>" << escape_html(title_) << "</h2>\n"
       << "<p class='legend'><span style='color:#f5c542'>&#9679; AP</span>"
       << "<span style='color:#e74c3c'>&#9679; real position</span>"
       << "<span style='color:#3498db'>&#9679; estimated position</span>"
       << "<span style='color:#2ecc71'>&#9632; sniffer</span></p>\n"
       << "<svg width='" << view_w << "' height='" << view_h << "' viewBox='0 0 "
       << view_w << " " << view_h << "'>\n"
       << svg.str() << "</svg>\n</body></html>\n";
  return html.str();
}

void MarauderMap::write_html(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("MarauderMap: cannot write " + path.string());
  out << to_html();
}

std::string MarauderMap::to_geojson() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(7);
  out << "{\"type\":\"FeatureCollection\",\"features\":[";
  bool first = true;
  auto point_feature = [&](const Marker& m, const char* kind) {
    const geo::Geodetic g = frame_.to_geodetic(m.position);
    if (!first) out << ",";
    first = false;
    out << "{\"type\":\"Feature\",\"geometry\":{\"type\":\"Point\",\"coordinates\":["
        << g.lon_deg << "," << g.lat_deg << "]},\"properties\":{\"kind\":\"" << kind
        << "\",\"label\":\"" << util::json_escape(m.label) << "\"";
    if (m.radius_m) out << ",\"radius_m\":" << *m.radius_m;
    out << "}}";
  };
  for (const Marker& m : aps_) point_feature(m, "ap");
  for (const Marker& m : truths_) point_feature(m, "true");
  for (const Marker& m : estimates_) point_feature(m, "estimate");
  if (sniffer_) point_feature(*sniffer_, "sniffer");
  for (const Path& path : paths_) {
    if (!first) out << ",";
    first = false;
    out << "{\"type\":\"Feature\",\"geometry\":{\"type\":\"LineString\",\"coordinates\":[";
    for (std::size_t i = 0; i < path.points.size(); ++i) {
      const geo::Geodetic g = frame_.to_geodetic(path.points[i]);
      if (i != 0) out << ",";
      out << "[" << g.lon_deg << "," << g.lat_deg << "]";
    }
    out << "]},\"properties\":{\"kind\":\"path\",\"label\":\""
        << util::json_escape(path.label) << "\"}}";
  }
  out << "]}";
  return out.str();
}

void MarauderMap::write_geojson(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("MarauderMap: cannot write " + path.string());
  out << to_geojson();
}

}  // namespace mm::maps
