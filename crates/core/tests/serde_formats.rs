//! The rules every journaled and wire format in the workspace leans on,
//! tested where `cargo test --workspace` runs them (the stand-ins under
//! `vendor/` are not workspace members): the derive's field attributes,
//! integer decoding by range check, and — one table, `DECODE_RULES` — what
//! the typed decoder accepts and what it refuses.

use serde::{Deserialize, Serialize, Value};

fn is_zero(n: &u64) -> bool {
    *n == 0
}

mod hex {
    use serde::{de::Parser, Error, Serialize};

    pub fn write_json(n: &u32, out: &mut Vec<u8>) {
        format!("{n:x}").write_json(out)
    }

    pub fn read_json(p: &mut Parser<'_>) -> Result<u32, Error> {
        u32::from_str_radix(&p.string()?, 16).map_err(Error::msg)
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u32,
    #[serde(default)]
    added_later: Vec<u8>,
    /// A doc comment between attributes changes nothing.
    #[serde(default, skip_serializing_if = "is_zero")]
    trace: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    #[serde(with = "hex")]
    mask: u32,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Answer {
    Yes,
    Parked {
        ticket: u64,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        why: Option<String>,
    },
}

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

#[test]
fn default_reads_an_absent_or_null_key_as_the_default() {
    let bare: Record = serde_json::from_str(r#"{"id":1,"note":null,"mask":"ff"}"#).unwrap();
    assert_eq!(
        bare,
        Record {
            id: 1,
            added_later: vec![],
            trace: 0,
            note: None,
            mask: 255,
        }
    );
    let nulls: Record =
        serde_json::from_str(r#"{"id":1,"added_later":null,"trace":null,"note":null,"mask":"ff"}"#)
            .unwrap();
    assert_eq!(nulls, bare);
    let full: Record =
        serde_json::from_str(r#"{"id":1,"added_later":[2],"trace":9,"note":"n","mask":"10"}"#)
            .unwrap();
    assert_eq!((full.added_later, full.trace, full.mask), (vec![2], 9, 16));
}

#[test]
fn skip_serializing_if_emits_no_key() {
    let mut r = Record {
        id: 1,
        added_later: vec![],
        trace: 0,
        note: None,
        mask: 0,
    };
    assert_eq!(json(&r), r#"{"id":1,"added_later":[],"mask":"0"}"#);
    r.trace = 9;
    r.note = Some("n".to_string());
    r.mask = 255;
    assert_eq!(
        json(&r),
        r#"{"id":1,"added_later":[],"trace":9,"note":"n","mask":"ff"}"#
    );
}

#[test]
fn a_missing_required_field_errors_naming_it() {
    // `note` skips on write but is not `default`: it stays required on read.
    for (text, field) in [
        (r#"{"note":null,"mask":"0"}"#, "id"),
        (r#"{"id":1,"mask":"0"}"#, "note"),
        (r#"{"id":1,"note":null}"#, "mask"),
    ] {
        let err = serde_json::from_str::<Record>(text).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("missing field `{field}`")),
            "{text}: {err}"
        );
    }
    assert!(serde_json::from_str::<Record>(r#"{"id":1,"note":null,"mask":"zz"}"#).is_err());
}

#[test]
fn attributes_work_on_an_enum_struct_variant() {
    assert_eq!(json(&Answer::Yes), r#""Yes""#);
    let bare = Answer::Parked {
        ticket: 4,
        why: None,
    };
    assert_eq!(json(&bare), r#"{"Parked":{"ticket":4}}"#);
    assert_eq!(
        serde_json::from_str::<Answer>(r#"{"Parked":{"ticket":4}}"#).unwrap(),
        bare
    );
    let told = Answer::Parked {
        ticket: 4,
        why: Some("full".to_string()),
    };
    assert_eq!(json(&told), r#"{"Parked":{"ticket":4,"why":"full"}}"#);
    assert_eq!(serde_json::from_str::<Answer>(&json(&told)).unwrap(), told);
    let err = serde_json::from_str::<Answer>(r#"{"Parked":{"why":"full"}}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `ticket`"), "{err}");
}

#[test]
fn integers_decode_by_range_check() {
    fn read<T: Deserialize>(text: &str) -> Result<T, serde::Error> {
        serde_json::from_str(text)
    }
    assert_eq!(read::<u32>("7"), Ok(7));
    assert_eq!(read::<u64>("18446744073709551615"), Ok(u64::MAX));
    assert_eq!(read::<i64>("-9223372036854775808"), Ok(i64::MIN));
    assert_eq!(read::<u8>("255.0"), Ok(255));
    assert_eq!(read::<i8>("-128.0"), Ok(-128));
    assert_eq!(read::<u16>("1e3"), Ok(1000));
    // What `as` used to answer: u32::MAX, 0, 5, u32::MAX, 0, 1.
    for text in ["-1", "4294967296", "4294967301", "1e30", "-3.5", "1.5"] {
        let err = read::<u32>(text).unwrap_err();
        assert!(err.to_string().contains("u32"), "{text}: {err}");
    }
    assert!(read::<usize>("-1").is_err());
    // Written the way it is read: no unsigned value renders negative.
    assert_eq!(json(&usize::MAX), "18446744073709551615");
    assert_eq!(json(&u64::MAX), "18446744073709551615");
    assert_eq!(json(&-7i8), "-7");
    assert_eq!(json(&i64::MIN), "-9223372036854775808");
    assert!(read::<u64>("18446744073709551616").is_err());
    assert!(read::<u64>("1.8446744073709552e19").is_err());
    assert!(read::<i64>("9223372036854775808").is_err());
    assert!(read::<i64>("9.223372036854775808e18").is_err());
    for text in ["\"1\"", "null", "true", "[1]"] {
        let err = read::<u8>(text).unwrap_err();
        assert!(err.to_string().contains("u8"), "{text}: {err}");
    }
}

/// What the typed decoder does with each shape of input, by name. `Ok`
/// holds the value decoded (as its own re-encoding); `Err` a fragment of
/// the refusal.
const DECODE_RULES: &[(&str, &str, Result<&str, &str>)] = &[
    (
        "an unknown key is ignored, whatever (well-formed) value it holds",
        r#"{"id":1,"later":{"a":[1,{"b":null}],"c":"\u00e9"},"note":null,"mask":"a"}"#,
        Ok(r#"{"id":1,"added_later":[],"mask":"a"}"#),
    ),
    (
        "an unknown key's value is still syntax-checked",
        r#"{"id":1,"later":[1,],"note":null,"mask":"a"}"#,
        Err("at byte"),
    ),
    (
        "a number no f64 holds is refused even under an unknown key",
        r#"{"id":1,"later":1e999,"note":null,"mask":"a"}"#,
        Err("invalid number `1e999`"),
    ),
    (
        "a repeated known key is an error (real serde's derive rule), not first-wins",
        r#"{"id":1,"id":2,"note":null,"mask":"a"}"#,
        Err("duplicate field `id`"),
    ),
    (
        "a repeated unknown key is as ignored as one",
        r#"{"id":1,"x":1,"x":2,"note":null,"mask":"a"}"#,
        Ok(r#"{"id":1,"added_later":[],"mask":"a"}"#),
    ),
    (
        "null on a `default` field reads as the default",
        r#"{"id":1,"added_later":null,"trace":null,"note":null,"mask":"a"}"#,
        Ok(r#"{"id":1,"added_later":[],"mask":"a"}"#),
    ),
    (
        "an absent `default` field reads as the default",
        r#"{"id":1,"note":"n","mask":"a"}"#,
        Ok(r#"{"id":1,"added_later":[],"note":"n","mask":"a"}"#),
    ),
    (
        "an absent Option field without `default` is still an error",
        r#"{"id":1,"mask":"a"}"#,
        Err("missing field `note`"),
    ),
    (
        "trailing input after the document is refused",
        r#"{"id":1,"note":null,"mask":"a"} {"#,
        Err("trailing input"),
    ),
    (
        "whitespace around every token is not",
        " { \"id\" : 1 ,\n\t\"note\" : null , \"mask\" : \"a\" }\r\n",
        Ok(r#"{"id":1,"added_later":[],"mask":"a"}"#),
    ),
    (
        "\\uXXXX escapes decode, in values and in keys",
        r#"{"\u0069d":1,"note":"caf\u00e9 \"\u2603\" \/ \n","mask":"a"}"#,
        Ok("{\"id\":1,\"added_later\":[],\"note\":\"café \\\"☃\\\" / \\n\",\"mask\":\"a\"}"),
    ),
    (
        "non-ASCII strings round-trip as themselves",
        r#"{"id":1,"note":"π ≈ 3, 🦀","mask":"a"}"#,
        Ok(r#"{"id":1,"added_later":[],"note":"π ≈ 3, 🦀","mask":"a"}"#),
    ),
    (
        "an integer its field cannot hold is refused with the type named",
        r#"{"id":4294967296,"note":null,"mask":"a"}"#,
        Err("is not a valid u32"),
    ),
    (
        "so is a negative one into an unsigned field",
        r#"{"id":1,"added_later":[-1],"note":null,"mask":"a"}"#,
        Err("is not a valid u8"),
    ),
    (
        "a struct is not read out of an array",
        r#"[1,null,"a"]"#,
        Err("expected `{`"),
    ),
];

#[test]
fn decode_rules() {
    for (rule, text, want) in DECODE_RULES {
        match (serde_json::from_str::<Record>(text), want) {
            (Ok(got), Ok(want)) => assert_eq!(json(&got), *want, "{rule}"),
            (Err(e), Err(want)) => assert!(e.to_string().contains(want), "{rule}: {e}"),
            (got, want) => panic!("{rule}: got {got:?}, want {want:?}"),
        }
    }
}

#[test]
fn an_enum_object_holds_exactly_one_variant() {
    let parked = Answer::Parked {
        ticket: 4,
        why: None,
    };
    for (text, want) in [
        (r#"{"Parked":{"ticket":4}}"#, Some(&parked)),
        (r#""Yes""#, Some(&Answer::Yes)),
        (r#"{"Parked":{"ticket":4},"Yes":null}"#, None),
        (r#"{"Parked":{"ticket":4},"Parked":{"ticket":4}}"#, None),
        (r#"{}"#, None),
        // A name in the other variant form is no variant.
        (r#""Parked""#, None),
        (r#"{"Yes":null}"#, None),
        (r#"{"Maybe":{}}"#, None),
        (r#"["Yes"]"#, None),
    ] {
        assert_eq!(
            serde_json::from_str::<Answer>(text).ok().as_ref(),
            want,
            "{text}"
        );
    }
}

#[test]
fn nesting_is_accepted_to_depth_128_and_refused_beyond() {
    let wrapped = |depth: usize| {
        format!(
            r#"{{"id":1,"later":{}1{},"note":null,"mask":"a"}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    // The record's own braces are the first level.
    assert!(serde_json::from_str::<Record>(&wrapped(127)).is_ok());
    let err = serde_json::from_str::<Record>(&wrapped(128)).unwrap_err();
    assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    let bare = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    assert!(serde_json::from_str::<Value>(&bare(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&bare(129)).is_err());
    // Far past any stack: refused at the 129th bracket, not by the OS.
    assert!(serde_json::from_str::<Record>(&wrapped(1 << 20)).is_err());
}
