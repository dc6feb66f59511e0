package main

import (
	"reflect"
	"strings"
	"testing"

	"mobistreams/internal/bench"
)

func TestCheckExp(t *testing.T) {
	for _, name := range append([]string{"all"}, experiments...) {
		if err := checkExp(name); err != nil {
			t.Errorf("checkExp(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"fig11", "", "Churn", "all,fig8"} {
		err := checkExp(name)
		if err == nil {
			t.Errorf("checkExp(%q) accepted an unknown experiment", name)
			continue
		}
		if !strings.Contains(err.Error(), "table1|fig6|") || !strings.Contains(err.Error(), "placement|all") {
			t.Errorf("checkExp(%q) error lacks the valid names: %v", name, err)
		}
	}
}

func TestParseApps(t *testing.T) {
	for list, want := range map[string][]bench.App{
		"bcp,sg":            {bench.BCP, bench.SG},
		" signalguru , bcp": {bench.SG, bench.BCP},
		"sg":                {bench.SG},
	} {
		got, err := parseApps(list)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseApps(%q) = %v, %v; want %v", list, got, err, want)
		}
	}
	for _, list := range []string{"bcp,foo", "", "bcp,"} {
		_, err := parseApps(list)
		if err == nil {
			t.Errorf("parseApps(%q) accepted an unknown app", list)
			continue
		}
		if !strings.Contains(err.Error(), "bcp|sg|signalguru") {
			t.Errorf("parseApps(%q) error lacks the valid names: %v", list, err)
		}
	}
}
