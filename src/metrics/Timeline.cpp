//===- metrics/Timeline.cpp - Phase timeline visualization -------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "metrics/Timeline.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace opd;

namespace {

std::string escapeXML(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    case '"':
      Out += "&quot;";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string rect(double X, double Y, double W, double H,
                 const std::string &Fill, const std::string &Extra = "") {
  return "  <rect x=\"" + formatDouble(X, 2) + "\" y=\"" +
         formatDouble(Y, 2) + "\" width=\"" + formatDouble(W, 2) +
         "\" height=\"" + formatDouble(H, 2) + "\" fill=\"" + Fill +
         "\"" + Extra + "/>\n";
}

} // namespace

std::string
opd::renderTimelineSVG(const std::vector<TimelineTrack> &Tracks,
                       const TimelineOptions &Options) {
  assert(!Tracks.empty() && "timeline needs at least one track");
  uint64_t Total = Tracks.front().States->size();
  for ([[maybe_unused]] const TimelineTrack &T : Tracks) {
    assert(T.States && "track without states");
    assert(T.States->size() == Total && "tracks must cover the same trace");
  }

  const unsigned Pad = 8;
  const unsigned AxisHeight = 22;
  unsigned Height = static_cast<unsigned>(Tracks.size()) *
                        (Options.TrackHeight + Pad) +
                    AxisHeight + Pad;
  unsigned TotalWidth = Options.LabelWidth + Options.Width + 2 * Pad;

  std::string Out = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    std::to_string(TotalWidth) + "\" height=\"" +
                    std::to_string(Height) +
                    "\" font-family=\"monospace\" font-size=\"12\">\n";
  double ScaleX =
      Total == 0 ? 0.0 : static_cast<double>(Options.Width) / Total;

  for (size_t I = 0; I != Tracks.size(); ++I) {
    const TimelineTrack &Track = Tracks[I];
    double Y = Pad + static_cast<double>(I) * (Options.TrackHeight + Pad);
    // Label.
    Out += "  <text x=\"" + std::to_string(Pad) + "\" y=\"" +
           formatDouble(Y + Options.TrackHeight * 0.7, 2) + "\">" +
           escapeXML(Track.Label) + "</text>\n";
    // Transition background.
    Out += rect(Options.LabelWidth, Y, Options.Width, Options.TrackHeight,
                "#e8e8e8");
    // In-phase bars.
    for (const PhaseInterval &P : Track.States->phases()) {
      double X = Options.LabelWidth + P.Begin * ScaleX;
      double W = std::max(0.5, static_cast<double>(P.length()) * ScaleX);
      Out += rect(X, Y, W, Options.TrackHeight, Track.Color,
                  " opacity=\"0.9\"");
    }
  }

  // Time axis with start/middle/end ticks.
  double AxisY = Height - AxisHeight + 4;
  for (double Frac : {0.0, 0.5, 1.0}) {
    double X = Options.LabelWidth + Frac * Options.Width;
    Out += "  <text x=\"" + formatDouble(X, 2) + "\" y=\"" +
           formatDouble(AxisY + 12, 2) +
           "\" text-anchor=\"middle\" fill=\"#555\">" +
           formatCount(static_cast<uint64_t>(Frac * Total)) + "</text>\n";
  }
  Out += "</svg>\n";
  return Out;
}

std::string
opd::renderTimelineHTML(const std::string &Title,
                        const std::vector<TimelineTrack> &Tracks,
                        const TimelineOptions &Options) {
  std::string Out = "<!DOCTYPE html>\n<html>\n<head>\n<meta "
                    "charset=\"utf-8\"/>\n<title>" +
                    escapeXML(Title) +
                    "</title>\n</head>\n<body>\n<h2>" + escapeXML(Title) +
                    "</h2>\n<p>Colored bars are detected/identified "
                    "phases (P); gray is transition (T).</p>\n";
  Out += renderTimelineSVG(Tracks, Options);
  Out += "</body>\n</html>\n";
  return Out;
}
