package experiments

import (
	"encoding/csv"
	"encoding/json"
	"io"
)

// MarshalJSON emits the experiment's stable wire form — id, title, paper,
// header, rows, notes, always arrays and never null — so downstream
// tooling can stop scraping Render() text. The field set is the contract;
// do not rename.
func (e Experiment) MarshalJSON() ([]byte, error) {
	type wire struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Paper  string     `json:"paper"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes"`
	}
	w := wire{ID: e.ID, Title: e.Title, Paper: e.Paper,
		Header: e.Header, Rows: e.Rows, Notes: e.Notes}
	if w.Header == nil {
		w.Header = []string{}
	}
	if w.Rows == nil {
		w.Rows = [][]string{}
	}
	for i, r := range w.Rows {
		if r == nil {
			w.Rows[i] = []string{}
		}
	}
	if w.Notes == nil {
		w.Notes = []string{}
	}
	return json.Marshal(w)
}

// WriteCSV writes the experiment's header and rows as CSV. Ragged rows are
// allowed (the renderers emit them for average lines), so each record is
// written as-is.
func (e Experiment) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(e.Header); err != nil {
		return err
	}
	for _, r := range e.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Export writes experiments as one two-space-indented JSON array in their
// stable wire form.
func Export(w io.Writer, exps []Experiment) error {
	if exps == nil {
		exps = []Experiment{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(exps)
}
