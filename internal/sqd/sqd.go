// Package sqd reads and writes SiQAD design files (.sqd) — flow step (8):
// "generate a design file from the SiDB layout for physical simulation
// and/or fabrication". The format is the XML document used by the SiQAD
// CAD tool [30]; layouts exported here can be opened and simulated in
// SiQAD directly.
package sqd

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/lattice"
	"repro/internal/sidb"
)

// document mirrors the .sqd XML structure (subset sufficient for DB
// layouts).
type document struct {
	XMLName xml.Name  `xml:"siqad"`
	Program program   `xml:"program"`
	GUI     gui       `xml:"gui"`
	Design  designGrp `xml:"design"`
}

type program struct {
	FilePurpose string `xml:"file_purpose"`
	Version     string `xml:"version"`
	Date        string `xml:"date"`
}

type gui struct {
	Zoom   float64 `xml:"zoom"`
	DispnX float64 `xml:"displayed_region>x1"`
	DispnY float64 `xml:"displayed_region>y1"`
	DispmX float64 `xml:"displayed_region>x2"`
	DispmY float64 `xml:"displayed_region>y2"`
}

type designGrp struct {
	Layers []layer         `xml:"layer_prop"`
	Groups []layerContents `xml:"layer"`
}

type layer struct {
	Name    string `xml:"name"`
	Type    string `xml:"type"`
	Role    string `xml:"role,attr,omitempty"`
	Visible bool   `xml:"visible"`
	Active  bool   `xml:"active"`
}

type layerContents struct {
	XMLName xml.Name `xml:"layer"`
	Type    string   `xml:"type,attr"`
	DBDots  []dbdot  `xml:"dbdot"`
}

type dbdot struct {
	LayerID  int     `xml:"layer_id"`
	LatCoord latXML  `xml:"latcoord"`
	Physloc  physXML `xml:"physloc"`
	Color    string  `xml:"color,omitempty"`
}

type latXML struct {
	N int `xml:"n,attr"`
	M int `xml:"m,attr"`
	L int `xml:"l,attr"`
}

type physXML struct {
	X float64 `xml:"x,attr"`
	Y float64 `xml:"y,attr"`
}

// Write serializes the layout as a .sqd document.
func Write(w io.Writer, l *sidb.Layout) error {
	doc := document{
		Program: program{
			FilePurpose: "save",
			Version:     "bestagon-repro",
			Date:        "generated",
		},
		GUI: gui{Zoom: 0.1},
		Design: designGrp{
			Layers: []layer{
				{Name: "Lattice", Type: "Lattice", Visible: true},
				{Name: "Misc", Type: "Misc", Visible: true},
				{Name: "Surface", Type: "DB", Visible: true, Active: true},
			},
		},
	}
	contents := layerContents{Type: "DB"}
	for _, d := range l.Dots {
		x, y := d.Site.Pos()
		dot := dbdot{
			LayerID:  2,
			LatCoord: latXML{N: d.Site.N, M: d.Site.M, L: d.Site.L},
			// SiQAD physloc is in angstroms.
			Physloc: physXML{X: x * 10, Y: y * 10},
		}
		if d.Role == sidb.RolePerturber {
			dot.Color = "#ffc8c8c8"
		}
		contents.DBDots = append(contents.DBDots, dot)
	}
	doc.Design.Groups = []layerContents{contents}

	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("sqd: encode: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// WriteString renders the layout to a string.
func WriteString(l *sidb.Layout) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, l); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Read parses a .sqd document into a layout. Only DB dots are read; roles
// are inferred from the color annotation written by Write (perturbers are
// gray).
func Read(r io.Reader) (*sidb.Layout, error) {
	var doc document
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("sqd: decode: %w", err)
	}
	l := &sidb.Layout{}
	for _, grp := range doc.Design.Groups {
		for _, d := range grp.DBDots {
			role := sidb.RoleNormal
			if d.Color == "#ffc8c8c8" {
				role = sidb.RolePerturber
			}
			l.Add(lattice.Site{N: d.LatCoord.N, M: d.LatCoord.M, L: d.LatCoord.L}, role)
		}
	}
	return l, nil
}
