//! The two rules every journaled and wire format in the workspace leans on,
//! tested where `cargo test --workspace` runs them (the stand-ins under
//! `vendor/` are not workspace members): the derive's field attributes, and
//! integer decoding by range check.

use serde::{Deserialize, Serialize, Value};

fn is_zero(n: &u64) -> bool {
    *n == 0
}

mod hex {
    use serde::{Deserialize, Error, Value};

    pub fn to_value(n: &u32) -> Value {
        Value::Str(format!("{n:x}"))
    }

    pub fn from_value(v: &Value) -> Result<u32, Error> {
        u32::from_str_radix(&String::from_value(v)?, 16).map_err(Error::msg)
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
    assert_eq!(u32::from_value(&Value::Int(7)), Ok(7));
    assert_eq!(u64::from_value(&Value::UInt(u64::MAX)), Ok(u64::MAX));
    assert_eq!(i64::from_value(&Value::Int(i64::MIN)), Ok(i64::MIN));
    assert_eq!(u8::from_value(&Value::Num(255.0)), Ok(255));
    assert_eq!(i8::from_value(&Value::Num(-128.0)), Ok(-128));
    // What `as` used to answer: u32::MAX, 0, 5, u32::MAX, 0, 1, 0.
    for v in [
        Value::Int(-1),
        Value::Int(1 << 32),
        Value::Int((1 << 32) + 5),
        Value::Num(1e30),
        Value::Num(-3.5),
        Value::Num(1.5),
        Value::Num(f64::NAN),
    ] {
        let err = u32::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("u32"), "{v:?}: {err}");
    }
    assert!(usize::from_value(&Value::Int(-1)).is_err());
    // Written the way it is read: no unsigned value renders negative.
    assert_eq!(usize::MAX.to_value(), Value::UInt(u64::MAX));
    assert_eq!(u64::MAX.to_value(), Value::UInt(u64::MAX));
    assert_eq!((-7i8).to_value(), Value::Int(-7));
    assert!(u64::from_value(&Value::Num(2f64.powi(64))).is_err());
    assert!(i64::from_value(&Value::UInt(1 << 63)).is_err());
    assert!(i64::from_value(&Value::Num(2f64.powi(63))).is_err());
    assert!(u8::from_value(&Value::Str("1".to_string())).is_err());
}
