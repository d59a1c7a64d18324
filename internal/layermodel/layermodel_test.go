package layermodel

import (
	"strings"
	"testing"
)

// paperMatrix is Table 1 as published (F=full, P=partial/"no particular
// benefit", N=not appropriate), columns OS, App, User.
var paperMatrix = map[string][3]Mark{
	"Low latency":                {Full, Partial, Partial},
	"Loss rate":                  {Full, Full, None},
	"Path MTU information":       {Full, Partial, None},
	"Bandwidth":                  {Full, Full, Partial},
	"QoS":                        {Full, Full, Partial},
	"Jitter optimization":        {Full, Full, Partial},
	"Geofencing (Alibi routing)": {Partial, Full, Full},
	"Onion routing":              {Partial, Full, Full},
	"Carbon footprint reduction": {Partial, Full, Full},
	"Ethical routing":            {Partial, Partial, Full},
	"Allied AS routing":          {Partial, Full, Full},
	"Price optimization":         {Full, Full, Full},
}

func TestMatrixMatchesPaperTable1(t *testing.T) {
	m := Matrix()
	if len(m) != len(paperMatrix) {
		t.Fatalf("matrix has %d rows, want %d", len(m), len(paperMatrix))
	}
	for name, want := range paperMatrix {
		row, ok := m[name]
		if !ok {
			t.Errorf("missing property %q", name)
			continue
		}
		for i, layer := range Layers {
			if row[layer] != want[i] {
				t.Errorf("%s / %s = %v, want %v", name, layer, row[layer], want[i])
			}
		}
	}
}

func TestLayerStrengthsAggregate(t *testing.T) {
	// The section-level claims: the OS dominates performance/quality, the
	// user dominates privacy/ESG/economics, and the application is a strong
	// generalist.
	m := Matrix()
	fullCount := map[Layer]int{}
	for _, row := range m {
		for l, mark := range row {
			if mark == Full {
				fullCount[l]++
			}
		}
	}
	if fullCount[OS] != 7 {
		t.Errorf("OS full marks = %d, want 7 (performance + quality + price)", fullCount[OS])
	}
	if fullCount[User] != 6 {
		t.Errorf("User full marks = %d, want 6 (privacy + ESG + economics)", fullCount[User])
	}
	if fullCount[App] < fullCount[OS] || fullCount[App] < fullCount[User] {
		t.Errorf("App full marks = %d; the paper positions the app layer as the broadest", fullCount[App])
	}
}

func TestUserCannotDecideAbstractedMetrics(t *testing.T) {
	// "Metrics such as loss and MTU get abstracted by lower layers."
	m := Matrix()
	if m["Loss rate"][User] != None || m["Path MTU information"][User] != None {
		t.Error("user layer should be unable to decide on loss/MTU")
	}
}

func TestOSLacksContextForPrivacy(t *testing.T) {
	// "The OS generally lacks context to determine that traffic is privacy
	// sensitive."
	m := Matrix()
	for _, p := range []string{"Geofencing (Alibi routing)", "Onion routing", "Carbon footprint reduction"} {
		if m[p][OS] == Full {
			t.Errorf("OS should not fully decide %q", p)
		}
	}
}

func TestRenderContainsAllRowsAndClasses(t *testing.T) {
	out := Render()
	for _, p := range Properties {
		if !strings.Contains(out, p.Name) {
			t.Errorf("render missing %q", p.Name)
		}
	}
	for _, class := range []string{"Performance properties", "Quality properties", "Privacy / Anonymity", "ESG Routing", "Economic aspects"} {
		if !strings.Contains(out, class) {
			t.Errorf("render missing class %q", class)
		}
	}
}

func TestEvaluateUnknownLayerIsNone(t *testing.T) {
	// Unknown layers have empty capabilities: every metric absent.
	if got := Evaluate(Layer("kernel-module"), Properties[0]); got != None {
		t.Fatalf("unknown layer mark = %v", got)
	}
}

func TestMarkStrings(t *testing.T) {
	if Full.String() != "full" || Partial.String() != "partial" || None.String() != "none" {
		t.Fatal("mark strings wrong")
	}
	if Full.Glyph() == Partial.Glyph() || Partial.Glyph() == None.Glyph() {
		t.Fatal("glyphs must be distinct")
	}
}

// BenchmarkTable1LayerModel regenerates the Table 1 decision matrix.
func BenchmarkTable1LayerModel(b *testing.B) {
	for range b.N {
		if len(Matrix()) != 12 {
			b.Fatal("matrix incomplete")
		}
	}
}
