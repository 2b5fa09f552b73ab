package objfile

import "sort"

// AbsAddr reports the absolute address a relocation patches.
func (r Reloc) AbsAddr() uint32 {
	if r.Section == SecText {
		return TextBase + r.Offset
	}
	return DataBase + r.Offset
}

// FuncSymbols returns the function symbols in ascending address order.
func (im *Image) FuncSymbols() []Symbol {
	var out []Symbol
	for _, s := range im.Symbols {
		if s.Kind == SymFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}
