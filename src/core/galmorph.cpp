#include "core/galmorph.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "sky/coords.hpp"

namespace nvo::core {

Expected<GalMorphArgs> GalMorphArgs::from_args(
    const std::map<std::string, std::string>& args) {
  GalMorphArgs out;
  const auto get = [&](const char* key) -> std::optional<std::string> {
    const auto it = args.find(key);
    if (it == args.end()) return std::nullopt;
    return it->second;
  };
  const auto parse_field = [&](const char* key, double& target) -> Status {
    const auto text = get(key);
    if (!text) return Status::Ok();
    const auto v = parse_double(*text);
    if (!v) {
      return Error(ErrorCode::kParseError,
                   format("bad %s value '%s'", key, text->c_str()));
    }
    target = *v;
    return Status::Ok();
  };
  if (Status s = parse_field("redshift", out.redshift); !s.ok()) return s.error();
  if (Status s = parse_field("pixScale", out.pix_scale_deg); !s.ok()) return s.error();
  if (Status s = parse_field("zeroPoint", out.zero_point); !s.ok()) return s.error();
  if (Status s = parse_field("Ho", out.h0); !s.ok()) return s.error();
  if (Status s = parse_field("om", out.omega_m); !s.ok()) return s.error();
  if (const auto flat_text = get("flat")) {
    const auto v = parse_double(*flat_text);
    if (!v) return Error(ErrorCode::kParseError, "bad flat value '" + *flat_text + "'");
    out.flat = *v != 0.0;
  }
  return out;
}

std::map<std::string, std::string> GalMorphArgs::to_args() const {
  return {
      {"redshift", format("%.9g", redshift)},
      {"pixScale", format("%.16G", pix_scale_deg)},
      {"zeroPoint", format("%.9g", zero_point)},
      {"Ho", format("%.9g", h0)},
      {"om", format("%.9g", omega_m)},
      {"flat", flat ? "1" : "0"},
  };
}

sky::Cosmology GalMorphArgs::cosmology() const {
  sky::Cosmology c;
  c.h0_km_s_mpc = h0;
  c.omega_m = omega_m;
  c.flat = flat;
  if (!flat) c.omega_l = 1.0 - omega_m;  // prototype convention
  return c;
}

GalMorphResult run_gal_morph(const std::string& galaxy_id, const image::FitsFile& fits,
                             const GalMorphArgs& args) {
  GalMorphResult out;
  out.galaxy_id = galaxy_id;
  out.redshift = args.redshift;

  MorphologyOptions options;
  options.pixel_scale_arcsec = args.pix_scale_deg * sky::kArcsecPerDeg;
  options.zero_point = args.zero_point;
  out.params = measure_morphology(fits.data, options);

  const sky::Cosmology cosmology = args.cosmology();
  out.kpc_per_arcsec =
      args.redshift > 0.0 ? cosmology.kpc_per_arcsec(args.redshift) : 0.0;
  if (out.params.valid) {
    out.petrosian_r_kpc =
        out.params.petrosian_r * options.pixel_scale_arcsec * out.kpc_per_arcsec;
  }
  return out;
}

GalMorphResult run_gal_morph_bytes(const std::string& galaxy_id,
                                   const std::vector<std::uint8_t>& fits_bytes,
                                   const GalMorphArgs& args) {
  auto fits = image::read_fits(fits_bytes);
  if (!fits.ok()) {
    GalMorphResult out;
    out.galaxy_id = galaxy_id;
    out.redshift = args.redshift;
    out.params.valid = false;
    out.params.failure_reason = "undecodable FITS: " + fits.error().message;
    return out;
  }
  return run_gal_morph(galaxy_id, fits.value(), args);
}

std::string GalMorphResult::to_text() const {
  std::string out;
  out += "id=" + galaxy_id + "\n";
  out += format("valid=%d\n", params.valid ? 1 : 0);
  if (!params.valid) out += "reason=" + params.failure_reason + "\n";
  out += format("redshift=%.9g\n", redshift);
  out += format("surface_brightness=%.6f\n", params.surface_brightness);
  out += format("concentration=%.6f\n", params.concentration);
  out += format("asymmetry=%.6f\n", params.asymmetry);
  out += format("petrosian_r=%.4f\n", params.petrosian_r);
  out += format("r20=%.4f\n", params.r20);
  out += format("r80=%.4f\n", params.r80);
  out += format("total_flux=%.4f\n", params.total_flux);
  out += format("snr=%.4f\n", params.snr);
  out += format("kpc_per_arcsec=%.6f\n", kpc_per_arcsec);
  out += format("petrosian_r_kpc=%.4f\n", petrosian_r_kpc);
  return out;
}

Expected<GalMorphResult> GalMorphResult::parse_text(const std::string& text) {
  GalMorphResult out;
  bool saw_id = false;
  for (const std::string& line : split(text, '\n')) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Error(ErrorCode::kParseError, "bad result line: " + line);
    }
    const std::string key{trimmed.substr(0, eq)};
    const std::string value{trimmed.substr(eq + 1)};
    if (key == "id") {
      out.galaxy_id = value;
      saw_id = true;
      continue;
    }
    if (key == "reason") {
      out.params.failure_reason = value;
      continue;
    }
    const auto v = parse_double(value);
    if (!v) return Error(ErrorCode::kParseError, "bad numeric value in: " + line);
    if (key == "valid") {
      out.params.valid = *v != 0.0;
    } else if (key == "redshift") {
      out.redshift = *v;
    } else if (key == "surface_brightness") {
      out.params.surface_brightness = *v;
    } else if (key == "concentration") {
      out.params.concentration = *v;
    } else if (key == "asymmetry") {
      out.params.asymmetry = *v;
    } else if (key == "petrosian_r") {
      out.params.petrosian_r = *v;
    } else if (key == "r20") {
      out.params.r20 = *v;
    } else if (key == "r80") {
      out.params.r80 = *v;
    } else if (key == "total_flux") {
      out.params.total_flux = *v;
    } else if (key == "snr") {
      out.params.snr = *v;
    } else if (key == "kpc_per_arcsec") {
      out.kpc_per_arcsec = *v;
    } else if (key == "petrosian_r_kpc") {
      out.petrosian_r_kpc = *v;
    }
    // Unknown keys are ignored for forward compatibility.
  }
  if (!saw_id) return Error(ErrorCode::kParseError, "result lacks id");
  return out;
}

votable::Table morphology_schema(const std::string& table_name) {
  using votable::DataType;
  using votable::Field;
  votable::Table t({
      Field{"id", DataType::kString, "", "meta.id", "galaxy identifier"},
      Field{"valid", DataType::kBool, "", "meta.code.qual",
            "computation completed successfully"},
      Field{"surface_brightness", DataType::kDouble, "mag/arcsec2",
            "phot.mag.sb", "average surface brightness"},
      Field{"concentration", DataType::kDouble, "", "src.morph.param",
            "concentration index C = 5 log10(r80/r20)"},
      Field{"asymmetry", DataType::kDouble, "", "src.morph.param",
            "rotational asymmetry index"},
      Field{"petrosian_r", DataType::kDouble, "pix", "phys.angSize", ""},
      Field{"snr", DataType::kDouble, "", "stat.snr", ""},
      Field{"kpc_per_arcsec", DataType::kDouble, "kpc/arcsec", "", ""},
  });
  t.name = table_name;
  t.description = "galMorph computed morphology parameters";
  return t;
}

votable::Row morphology_row(const GalMorphResult& r, std::size_t num_columns) {
  using votable::Value;
  votable::Row row;
  row.reserve(num_columns);
  row.push_back(Value::of_string(r.galaxy_id));
  row.push_back(Value::of_bool(r.params.valid));
  if (r.params.valid) {
    row.push_back(Value::of_double(r.params.surface_brightness));
    row.push_back(Value::of_double(r.params.concentration));
    row.push_back(Value::of_double(r.params.asymmetry));
    row.push_back(Value::of_double(r.params.petrosian_r));
    row.push_back(Value::of_double(r.params.snr));
    row.push_back(Value::of_double(r.kpc_per_arcsec));
  } else {
    row.resize(num_columns);  // null measurements
  }
  return row;
}

votable::Table concat_results(const std::vector<GalMorphResult>& results,
                              const std::string& table_name) {
  votable::Table t = morphology_schema(table_name);
  t.reserve_rows(results.size());
  for (const GalMorphResult& r : results) {
    (void)t.append_row(morphology_row(r, t.num_columns()));
  }
  return t;
}

Expected<GalMorphResult> result_from_row(const votable::Table& table, std::size_t row) {
  if (row >= table.num_rows()) {
    return Error(ErrorCode::kInvalidArgument, format("row %zu out of range", row));
  }
  GalMorphResult out;
  const auto id = table.cell(row, "id").as_string();
  if (!id) return Error(ErrorCode::kParseError, "row lacks id");
  out.galaxy_id = *id;
  out.params.valid = table.cell(row, "valid").as_bool().value_or(false);
  out.params.surface_brightness =
      table.cell(row, "surface_brightness").as_number().value_or(0.0);
  out.params.concentration = table.cell(row, "concentration").as_number().value_or(0.0);
  out.params.asymmetry = table.cell(row, "asymmetry").as_number().value_or(0.0);
  out.params.petrosian_r = table.cell(row, "petrosian_r").as_number().value_or(0.0);
  out.params.snr = table.cell(row, "snr").as_number().value_or(0.0);
  out.kpc_per_arcsec = table.cell(row, "kpc_per_arcsec").as_number().value_or(0.0);
  return out;
}

}  // namespace nvo::core
