//! Error-path coverage for every text format the tools ingest: native
//! netlists, structural Verilog, and EDIF. Malformed input —
//! including every truncation of a valid document — must produce a typed
//! error with useful context (line numbers, offending names), never a
//! panic and never a silently wrong netlist.

use mgba::MgbaError;
use netlist::{
    parse_netlist, parse_verilog, write_netlist, write_verilog, GeneratorConfig, ParseNetlistError,
};

fn small_text() -> String {
    write_netlist(&GeneratorConfig::small(1).generate())
}

#[test]
fn every_truncation_of_a_native_netlist_errors_cleanly() {
    let text = small_text();
    assert!(parse_netlist(&text).is_ok(), "fixture must be valid");
    // Every line-boundary prefix, plus every byte prefix of the head of
    // the document (where the grammar's directives live).
    let mut cuts: Vec<usize> = text
        .char_indices()
        .filter(|&(i, c)| c == '\n' || i < 220)
        .map(|(i, _)| i)
        .collect();
    cuts.push(text.len().saturating_sub(1));
    for cut in cuts {
        let prefix = &text[..cut];
        if let Err(e) = parse_netlist(prefix) {
            assert!(!e.to_string().is_empty(), "error must describe itself");
        }
    }
}

#[test]
fn malformed_line_is_reported_with_its_line_number() {
    let err = parse_netlist("design x\nlibrary std45\ncell broken\nend\n").unwrap_err();
    assert!(
        matches!(err, ParseNetlistError::Malformed { line: 3, .. }),
        "{err:?}"
    );
    assert!(err.to_string().starts_with("line 3:"), "{err}");
}

#[test]
fn duplicate_cell_and_net_names_are_rejected_with_location() {
    let dup_cell = "design x\nlibrary std45\n\
                    cell a INV_X1 comb 0 0\n\
                    cell a INV_X1 comb 1 0\n\
                    end\n";
    let err = parse_netlist(dup_cell).unwrap_err();
    assert!(
        matches!(err, ParseNetlistError::Malformed { line: 4, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("duplicate cell `a`"), "{err}");

    let dup_net = "design x\nlibrary std45\n\
                   cell a INV_X1 comb 0 0\n\
                   cell b INV_X1 comb 1 0\n\
                   net n driver=a sinks=b:0\n\
                   net n driver=b sinks=a:0\n\
                   end\n";
    let err = parse_netlist(dup_net).unwrap_err();
    assert!(
        matches!(err, ParseNetlistError::Malformed { line: 6, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("duplicate net `n`"), "{err}");
}

#[test]
fn combinational_loop_is_rejected_by_validation() {
    let loopy = "design loopy\nlibrary std45\n\
                 cell a INV_X1 comb 0 0\n\
                 cell b INV_X1 comb 1 0\n\
                 net na driver=a sinks=b:0\n\
                 net nb driver=b sinks=a:0\n\
                 end\n";
    let err = parse_netlist(loopy).unwrap_err();
    assert!(matches!(err, ParseNetlistError::Invalid(_)), "{err:?}");
    assert!(
        err.to_string().contains("combinational cycle through cell"),
        "{err}"
    );
}

#[test]
fn truncated_file_surfaces_as_typed_parse_error_with_context() {
    // Through the shared loader the CLI and server use: the typed error
    // keeps the parser's line context.
    let dir = std::env::temp_dir().join(format!("mgba_parser_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.nl");
    let text = small_text();
    let cut = text[..text.len() / 2]
        .rfind(' ')
        .expect("fixture has spaces");
    std::fs::write(&path, &text[..cut]).unwrap();
    let err = mgba::load_netlist_file(path.to_str().unwrap()).unwrap_err();
    assert!(matches!(err, MgbaError::Parse(_)), "{err:?}");
    assert!(err.to_string().contains("line "), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_of_a_verilog_module_errors_cleanly() {
    let text = write_verilog(&GeneratorConfig::small(2).generate());
    assert!(parse_verilog(&text).is_ok(), "fixture must be valid");
    for (i, _) in text.char_indices().filter(|&(i, _)| i % 3 == 0) {
        if let Err(e) = parse_verilog(&text[..i]) {
            assert!(!e.to_string().is_empty());
        }
    }
    // A cut mid-module is an unambiguous syntax error, not a success.
    let cut = text.len() / 2;
    let cut = (cut..text.len())
        .find(|&i| text.is_char_boundary(i))
        .unwrap();
    assert!(parse_verilog(&text[..cut]).is_err());
}

#[test]
fn unknown_verilog_cell_type_is_named_in_the_error() {
    // Swap one valid instantiation's cell type for a nonexistent one.
    let text = write_verilog(&GeneratorConfig::small(2).generate());
    let corrupted = text.replacen("DFF_X", "FROB_X", 1);
    assert_ne!(corrupted, text, "fixture must contain a flip-flop");
    let err = parse_verilog(&corrupted).unwrap_err();
    assert!(err.to_string().contains("FROB_X"), "{err}");
}

#[test]
fn every_truncation_of_an_edif_document_errors_cleanly() {
    let text = ingest::write_edif(&GeneratorConfig::small(3).generate());
    assert!(ingest::import_edif(&text).is_ok(), "fixture must be valid");
    // Byte-prefix sweep at a fixed stride plus every list-closing paren:
    // each cut must yield a typed error with a stable code, never a panic
    // and never a silently wrong netlist.
    let cuts: Vec<usize> = text
        .char_indices()
        .filter(|&(i, c)| i % 5 == 0 || c == ')')
        .map(|(i, _)| i)
        .collect();
    for cut in cuts {
        if let Err(e) = ingest::import_edif(&text[..cut]) {
            assert!(!e.to_string().is_empty(), "error must describe itself");
            assert!(!e.code.is_empty(), "error must carry a lint code");
        }
    }
    // A cut strictly inside the document body is an unambiguous error.
    let mid = (text.len() / 2..text.len())
        .find(|&i| text.is_char_boundary(i))
        .unwrap();
    assert!(ingest::import_edif(&text[..mid]).is_err());
}

#[test]
fn edif_garbage_windows_are_collected_issues_not_panics() {
    // Stamp garbage over a sliding window of the document. Every mutant
    // must run the whole collected-issues pass without panicking; when
    // the lenient pass reports errors the strict import must also fail.
    let text = ingest::write_edif(&GeneratorConfig::small(4).generate());
    let garbage = [
        "]]]@#$",
        "(((((((",
        "\"unterminated",
        "1e999999 ",
        ")) ((banana",
    ];
    for (slot, junk) in garbage.iter().enumerate() {
        let at = (slot + 1) * text.len() / (garbage.len() + 2);
        let start = (at..text.len())
            .find(|&i| text.is_char_boundary(i))
            .unwrap();
        let end = ((start + junk.len()).min(text.len())..=text.len())
            .find(|&i| text.is_char_boundary(i))
            .unwrap();
        let mutant = format!("{}{}{}", &text[..start], junk, &text[end..]);
        let imported = ingest::lint_edif(&mutant);
        if imported.report.num_errors() > 0 {
            assert!(ingest::import_edif(&mutant).is_err());
        }
        for issue in &imported.report.issues {
            assert!(!issue.message.is_empty());
        }
    }
}

#[test]
fn truncated_edif_through_the_shared_loader_keeps_its_location() {
    // The CLI and server load EDIF through the same sniffing loader as
    // native netlists; a truncated document must surface as a typed
    // parse error that still names the source position.
    let dir = std::env::temp_dir().join(format!("mgba_edif_errors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.edf");
    let text = ingest::write_edif(&GeneratorConfig::small(5).generate());
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let err = mgba::load_netlist_file(path.to_str().unwrap()).unwrap_err();
    assert!(matches!(err, MgbaError::Parse(_)), "{err:?}");
    assert!(err.to_string().contains("edif"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
