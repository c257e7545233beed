// Package climate implements the climate archetype (paper §3.1, Table 1):
// CMIP6-like gridded fields are ingested from NetCDF/GRIB, cleaned,
// regridded, normalized per variable, and sharded as one loader.Sample
// per month — the download → regrid → normalize → shard pattern of
// ClimaX/ORBIT. ExportNPZ builds the ClimaX-style NumPy archive from a
// finished product.
package climate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/formats/netcdf"
	"repro/internal/tensor"
)

// SynthConfig sizes the synthetic CMIP6-like generator.
type SynthConfig struct {
	Months      int
	Lat, Lon    int
	MissingRate float64 // fraction of cells dropped to NaN (sensor gaps)
	Seed        int64
}

// DefaultSynthConfig returns a laptop-scale dataset: 24 months of a
// 32x64 global temperature grid with 0.5% gaps.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{Months: 24, Lat: 32, Lon: 64, MissingRate: 0.005, Seed: 1}
}

// Field is an in-memory gridded variable stack [time, lat, lon] with
// coordinate vectors.
type Field struct {
	Name  string
	Units string
	Data  *tensor.Tensor // [T, Lat, Lon]
	Lats  []float64
	Lons  []float64
}

// Synthesize builds a physically plausible surface-temperature field:
// latitudinal gradient + seasonal cycle + topographic texture + noise,
// with NaN gaps at the configured rate.
func Synthesize(cfg SynthConfig) (*Field, error) {
	if cfg.Months <= 0 || cfg.Lat <= 1 || cfg.Lon <= 1 {
		return nil, fmt.Errorf("climate: invalid grid %dx%dx%d", cfg.Months, cfg.Lat, cfg.Lon)
	}
	if cfg.MissingRate < 0 || cfg.MissingRate >= 1 {
		return nil, fmt.Errorf("climate: missing rate %v out of [0,1)", cfg.MissingRate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Field{
		Name:  "tas",
		Units: "K",
		Data:  tensor.New(cfg.Months, cfg.Lat, cfg.Lon),
		Lats:  make([]float64, cfg.Lat),
		Lons:  make([]float64, cfg.Lon),
	}
	for i := range f.Lats {
		f.Lats[i] = -90 + 180*float64(i)/float64(cfg.Lat-1)
	}
	for j := range f.Lons {
		f.Lons[j] = 360 * float64(j) / float64(cfg.Lon)
	}
	data := f.Data.Data()
	idx := 0
	for t := 0; t < cfg.Months; t++ {
		season := 10 * math.Sin(2*math.Pi*float64(t)/12)
		for i := 0; i < cfg.Lat; i++ {
			latRad := f.Lats[i] * math.Pi / 180
			base := 288 - 35*math.Abs(math.Sin(latRad)) // equator warm, poles cold
			hemi := math.Copysign(1, f.Lats[i])
			for j := 0; j < cfg.Lon; j++ {
				lonRad := f.Lons[j] * math.Pi / 180
				topo := 3 * math.Sin(3*lonRad) * math.Cos(2*latRad)
				v := base - hemi*season + topo + rng.NormFloat64()*1.5
				if rng.Float64() < cfg.MissingRate {
					v = math.NaN()
				}
				data[idx] = v
				idx++
			}
		}
	}
	return f, nil
}

// ToNetCDF encodes the field as a classic NetCDF file with CF-style
// metadata (the community-standard ingest format).
func (f *Field) ToNetCDF() ([]byte, error) {
	nc := &netcdf.File{NumRecs: f.Data.Dim(0)}
	timeID := nc.AddDim("time", 0, true)
	latID := nc.AddDim("lat", len(f.Lats), false)
	lonID := nc.AddDim("lon", len(f.Lons), false)
	nc.GlobalAttrs = []netcdf.Attr{
		netcdf.CharAttr("Conventions", "CF-1.8"),
		netcdf.CharAttr("source", "repro synthetic CMIP6-like generator"),
		netcdf.CharAttr("frequency", "mon"),
	}
	// Replace NaN with the CF _FillValue for on-disk representation.
	const fillValue = 9.96921e36
	onDisk := make([]float64, f.Data.Numel())
	for i, v := range f.Data.Data() {
		if math.IsNaN(v) {
			onDisk[i] = fillValue
		} else {
			onDisk[i] = v
		}
	}
	nc.Vars = []netcdf.Var{
		{Name: "lat", Type: netcdf.Double, DimIDs: []int{latID},
			Attrs: []netcdf.Attr{netcdf.CharAttr("units", "degrees_north")},
			Data:  f.Lats},
		{Name: "lon", Type: netcdf.Double, DimIDs: []int{lonID},
			Attrs: []netcdf.Attr{netcdf.CharAttr("units", "degrees_east")},
			Data:  f.Lons},
		{Name: f.Name, Type: netcdf.Float, DimIDs: []int{timeID, latID, lonID},
			Attrs: []netcdf.Attr{
				netcdf.CharAttr("units", f.Units),
				netcdf.CharAttr("standard_name", "air_temperature"),
				netcdf.DoubleAttr("_FillValue", fillValue),
			},
			Data: onDisk},
	}
	return netcdf.Encode(nc)
}

// FromNetCDF decodes a field from classic NetCDF, restoring _FillValue
// cells to NaN.
func FromNetCDF(b []byte, varName string) (*Field, error) {
	nc, err := netcdf.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("climate: decode netcdf: %w", err)
	}
	v := nc.VarByName(varName)
	if v == nil {
		return nil, fmt.Errorf("climate: variable %q not in file", varName)
	}
	shape := nc.VarShape(v)
	if len(shape) != 3 {
		return nil, fmt.Errorf("climate: variable %q has shape %v, want [time,lat,lon]", varName, shape)
	}
	fill := math.NaN()
	units := ""
	for _, a := range v.Attrs {
		switch a.Name {
		case "_FillValue":
			if len(a.Values) == 1 {
				fill = a.Values[0]
			}
		case "units":
			units = a.Str
		}
	}
	data := append([]float64(nil), v.Data...)
	if !math.IsNaN(fill) {
		for i, x := range data {
			// float32 storage rounds the fill value; match loosely.
			if math.Abs(x-fill) < math.Abs(fill)*1e-6 {
				data[i] = math.NaN()
			}
		}
	}
	grid, err := tensor.FromSlice(data, shape...)
	if err != nil {
		return nil, err
	}
	f := &Field{Name: varName, Units: units, Data: grid}
	if lat := nc.VarByName("lat"); lat != nil {
		f.Lats = append([]float64(nil), lat.Data...)
	}
	if lon := nc.VarByName("lon"); lon != nil {
		f.Lons = append([]float64(nil), lon.Data...)
	}
	return f, nil
}

// SynthesizeVars generates several physically distinct variables on one
// grid: "tas" (surface temperature), "pr" (precipitation: non-negative,
// skewed, ITCZ-peaked), and "psl" (sea-level pressure). Unknown names are
// rejected. All fields share coordinates, mirroring a CMIP6 ensemble
// member.
func SynthesizeVars(cfg SynthConfig, names []string) ([]*Field, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("climate: no variables requested")
	}
	base, err := Synthesize(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*Field, 0, len(names))
	for vi, name := range names {
		switch name {
		case "tas":
			f := &Field{Name: "tas", Units: "K", Data: base.Data.Clone(),
				Lats: base.Lats, Lons: base.Lons}
			out = append(out, f)
		case "pr":
			rng := rand.New(rand.NewSource(cfg.Seed + int64(vi) + 1000))
			f := &Field{Name: "pr", Units: "kg m-2 s-1",
				Data: tensor.New(cfg.Months, cfg.Lat, cfg.Lon),
				Lats: base.Lats, Lons: base.Lons}
			data := f.Data.Data()
			idx := 0
			for t := 0; t < cfg.Months; t++ {
				for i := 0; i < cfg.Lat; i++ {
					latRad := f.Lats[i] * math.Pi / 180
					// ITCZ: rain peaks near the equator.
					itcz := math.Exp(-latRad * latRad / 0.15)
					for j := 0; j < cfg.Lon; j++ {
						v := 2e-5 * itcz * math.Abs(1+0.5*rng.NormFloat64())
						if rng.Float64() < cfg.MissingRate {
							v = math.NaN()
						}
						data[idx] = v
						idx++
					}
				}
			}
			out = append(out, f)
		case "psl":
			rng := rand.New(rand.NewSource(cfg.Seed + int64(vi) + 2000))
			f := &Field{Name: "psl", Units: "Pa",
				Data: tensor.New(cfg.Months, cfg.Lat, cfg.Lon),
				Lats: base.Lats, Lons: base.Lons}
			data := f.Data.Data()
			idx := 0
			for t := 0; t < cfg.Months; t++ {
				for i := 0; i < cfg.Lat; i++ {
					latRad := f.Lats[i] * math.Pi / 180
					for j := 0; j < cfg.Lon; j++ {
						// Subtropical highs around +-30 degrees.
						v := 101325 + 1500*math.Cos(3*latRad) + 100*rng.NormFloat64()
						if rng.Float64() < cfg.MissingRate {
							v = math.NaN()
						}
						data[idx] = v
						idx++
					}
				}
			}
			out = append(out, f)
		default:
			return nil, fmt.Errorf("climate: unknown variable %q (have tas, pr, psl)", name)
		}
	}
	return out, nil
}

// FieldsToNetCDF encodes several same-grid fields into one classic NetCDF
// file (a multi-variable CMIP6-like file).
func FieldsToNetCDF(fields []*Field) ([]byte, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("climate: no fields")
	}
	first := fields[0]
	nc := &netcdf.File{NumRecs: first.Data.Dim(0)}
	timeID := nc.AddDim("time", 0, true)
	latID := nc.AddDim("lat", len(first.Lats), false)
	lonID := nc.AddDim("lon", len(first.Lons), false)
	nc.GlobalAttrs = []netcdf.Attr{
		netcdf.CharAttr("Conventions", "CF-1.8"),
		netcdf.CharAttr("source", "repro synthetic CMIP6-like generator"),
	}
	nc.Vars = []netcdf.Var{
		{Name: "lat", Type: netcdf.Double, DimIDs: []int{latID},
			Attrs: []netcdf.Attr{netcdf.CharAttr("units", "degrees_north")},
			Data:  first.Lats},
		{Name: "lon", Type: netcdf.Double, DimIDs: []int{lonID},
			Attrs: []netcdf.Attr{netcdf.CharAttr("units", "degrees_east")},
			Data:  first.Lons},
	}
	const fillValue = 9.96921e36
	for _, f := range fields {
		if f.Data.Dim(0) != first.Data.Dim(0) || f.Data.Dim(1) != len(first.Lats) || f.Data.Dim(2) != len(first.Lons) {
			return nil, fmt.Errorf("climate: field %q grid mismatch", f.Name)
		}
		onDisk := make([]float64, f.Data.Numel())
		for i, v := range f.Data.Data() {
			if math.IsNaN(v) {
				onDisk[i] = fillValue
			} else {
				onDisk[i] = v
			}
		}
		nc.Vars = append(nc.Vars, netcdf.Var{
			Name: f.Name, Type: netcdf.Float, DimIDs: []int{timeID, latID, lonID},
			Attrs: []netcdf.Attr{
				netcdf.CharAttr("units", f.Units),
				netcdf.DoubleAttr("_FillValue", fillValue),
			},
			Data: onDisk,
		})
	}
	return netcdf.Encode(nc)
}
